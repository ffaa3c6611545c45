package core

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cfb"
	"repro/internal/features"
	"repro/internal/ovba"
)

// buildDocWith wraps one macro source into a minimal OLE document.
func buildDocWith(t *testing.T, src string) []byte {
	t.Helper()
	p := &ovba.Project{Name: "P", Modules: []ovba.Module{{Name: "Module1", Source: src}}}
	b := cfb.NewBuilder()
	if err := p.WriteTo(b, "Macros"); err != nil {
		t.Fatal(err)
	}
	raw, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestParseFeatureSet(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FeatureSet
	}{
		{"V", FeatureSetV}, {"v", FeatureSetV},
		{"J", FeatureSetJ}, {"j", FeatureSetJ},
		{"entropy", FeatureSetEntropy}, {"Entropy", FeatureSetEntropy},
		{"api", FeatureSetAPI}, {"API", FeatureSetAPI},
		{"stack", FeatureSetStack}, {" stack ", FeatureSetStack},
	} {
		got, err := ParseFeatureSet(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFeatureSet(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "w", "vj", "stacked"} {
		if _, err := ParseFeatureSet(bad); err == nil {
			t.Errorf("ParseFeatureSet(%q) accepted", bad)
		}
	}
}

func TestFeatureSetChannelsAndDims(t *testing.T) {
	vd, jd := len(features.VNames), len(features.JNames)
	ed := features.EntropyDim
	ad := features.APIDim
	for _, tc := range []struct {
		fs    FeatureSet
		chans []string
		dim   int
	}{
		{FeatureSetV, []string{"v"}, vd},
		{FeatureSetJ, []string{"j"}, jd},
		{FeatureSetEntropy, []string{"entropy"}, ed},
		{FeatureSetAPI, []string{"api"}, ad},
		{FeatureSetStack, []string{"v", "j", "entropy", "api"}, vd + jd + ed + ad},
	} {
		chans := tc.fs.Channels()
		var names []string
		for _, c := range chans {
			names = append(names, c.Name)
		}
		if !reflect.DeepEqual(names, tc.chans) {
			t.Errorf("%v channels = %v, want %v", tc.fs, names, tc.chans)
		}
		if got := tc.fs.Dim(); got != tc.dim {
			t.Errorf("%v dim = %d, want %d", tc.fs, got, tc.dim)
		}
		if got := len(tc.fs.FeatureNames()); got != tc.dim {
			t.Errorf("%v has %d feature names, want %d", tc.fs, got, tc.dim)
		}
		src := "Sub A()\nx = Chr(65)\nEnd Sub\n"
		if got := len(tc.fs.Extract(src)); got != tc.dim {
			t.Errorf("%v extract produced %d dims, want %d", tc.fs, got, tc.dim)
		}
	}
}

func TestFeatureSetStackConcatenation(t *testing.T) {
	src := "Sub Auto_Open()\nSet o = CreateObject(\"WScript.Shell\")\nEnd Sub\n"
	a := features.Analyze(src)
	got := FeatureSetStack.Extract(src)
	var want []float64
	want = append(want, a.V()...)
	want = append(want, a.J()...)
	want = append(want, a.EntropyChannel()...)
	want = append(want, a.APIChannel()...)
	if !reflect.DeepEqual(got, want) {
		t.Error("stack vector is not the channel concatenation")
	}
}

func TestFeatureSetCacheID(t *testing.T) {
	ids := map[string]bool{}
	for _, fs := range FeatureSets() {
		id := fs.CacheID()
		if id == "" || ids[id] {
			t.Errorf("CacheID %q empty or duplicated", id)
		}
		ids[id] = true
		if strings.ContainsRune(id, 0) {
			t.Errorf("CacheID %q contains NUL", id)
		}
	}
	if got := FeatureSetV.CacheID(); got != "V:v@1" {
		t.Errorf("V cache ID = %q", got)
	}
	if got := FeatureSetStack.CacheID(); got != "stack:v@1:j@1:entropy@1:api@1" {
		t.Errorf("stack cache ID = %q", got)
	}
}

// A model header without a channels record — what every pre-registry
// binary wrote — must still load for V/J and produce bit-identical
// verdicts; for any other feature set it must fail closed.
func TestLoadModelLegacyHeader(t *testing.T) {
	det := trainSmall(t, AlgoRF, FeatureSetV)
	blob, err := det.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	var head map[string]json.RawMessage
	if err := json.Unmarshal(blob, &head); err != nil {
		t.Fatal(err)
	}
	if _, ok := head["channels"]; !ok {
		t.Fatal("SaveModel writes no channels record")
	}
	delete(head, "channels")
	legacy, err := json.Marshal(head)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadModel(legacy)
	if err != nil {
		t.Fatalf("legacy V model rejected: %v", err)
	}
	src := "Sub q()\nx = Chr(1) & Chr(2) & Chr(3)\nEnd Sub\n" + strings.Repeat("' pad\n", 30)
	a, err := det.ClassifySource(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.ClassifySource(src)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score || a.Obfuscated != b.Obfuscated {
		t.Errorf("legacy-loaded verdict diverges: %+v vs %+v", a, b)
	}

	// The same channel-less header claiming a post-registry feature set
	// must fail closed.
	head["featureSet"] = json.RawMessage(`"entropy"`)
	forged, err := json.Marshal(head)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(forged); !errors.Is(err, ErrFeatureSkew) {
		t.Errorf("channel-less entropy model: err = %v, want ErrFeatureSkew", err)
	}
}

// mutateChannels round-trips a saved model through JSON, rewriting its
// channels record.
func mutateChannels(t *testing.T, blob []byte, fn func([]modelChannel) []modelChannel) []byte {
	t.Helper()
	var head struct {
		FeatureSet string          `json:"featureSet"`
		Algorithm  string          `json:"algorithm"`
		Channels   []modelChannel  `json:"channels,omitempty"`
		Model      json.RawMessage `json:"model"`
	}
	if err := json.Unmarshal(blob, &head); err != nil {
		t.Fatal(err)
	}
	head.Channels = fn(head.Channels)
	out, err := json.Marshal(head)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLoadModelFeatureSkew(t *testing.T) {
	det := trainSmall(t, AlgoRF, FeatureSetV)
	blob, err := det.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]modelChannel) []modelChannel{
		"version bump": func(cs []modelChannel) []modelChannel {
			cs[0].Version = 99
			return cs
		},
		"dim drift": func(cs []modelChannel) []modelChannel {
			cs[0].Dim++
			return cs
		},
		"wrong channel": func(cs []modelChannel) []modelChannel {
			cs[0].Name = "entropy"
			return cs
		},
		"extra channel": func(cs []modelChannel) []modelChannel {
			return append(cs, modelChannel{Name: "api", Version: 1, Dim: features.APIDim})
		},
	}
	for name, fn := range cases {
		mutated := mutateChannels(t, blob, fn)
		_, err := LoadModel(mutated)
		if !errors.Is(err, ErrFeatureSkew) {
			t.Errorf("%s: err = %v, want ErrFeatureSkew", name, err)
			continue
		}
		var skew *FeatureSkewError
		if !errors.As(err, &skew) {
			t.Errorf("%s: error not a *FeatureSkewError: %v", name, err)
		} else if skew.Error() == "" || skew.FeatureSet != "V" {
			t.Errorf("%s: malformed skew error %+v", name, skew)
		}
	}
	// Unmutated blob still loads.
	if _, err := LoadModel(blob); err != nil {
		t.Errorf("pristine model rejected: %v", err)
	}
}

func TestStackDetectorEndToEnd(t *testing.T) {
	det := trainSmall(t, AlgoStack, FeatureSetStack)
	obf := "Sub zz()\nx = Chr(104) & Chr(116) & Chr(116) & Chr(112)\nCreateObject(\"WScript.Shell\").Run x, 0\nEnd Sub\n"
	v, err := det.ClassifySource(obf)
	if err != nil {
		t.Fatal(err)
	}
	if v.Score < 0 || v.Score > 1 {
		t.Errorf("stack score %v outside [0,1]", v.Score)
	}

	// Snapshot round trip preserves verdicts exactly.
	blob, err := det.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	if restored.FeatureSet() != FeatureSetStack || restored.Algorithm() != AlgoStack {
		t.Errorf("restored meta: fs=%v algo=%v", restored.FeatureSet(), restored.Algorithm())
	}
	for _, src := range []string{
		obf,
		"Sub Report()\nFor i = 1 To 50\n  t = t + Cells(i, 2).Value\nNext i\nEnd Sub\n",
	} {
		a, err := det.ClassifySource(src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.ClassifySource(src)
		if err != nil {
			t.Fatal(err)
		}
		if a.Score != b.Score || a.Obfuscated != b.Obfuscated {
			t.Errorf("stack verdict diverges after round trip")
		}
	}

	// A stack model wrapped in a legacy model container still loads.
	if _, err := LoadModel(legacyContainer(blob, modelContainerVersion, arbitrarySection)); err != nil {
		t.Errorf("containerized stack model rejected: %v", err)
	}
}

func TestNewClassifierRejectsStack(t *testing.T) {
	if _, err := NewClassifier(AlgoStack, 1); err == nil {
		t.Error("NewClassifier must refuse AlgoStack (needs a channel layout)")
	}
}

// Two detectors over different feature sets sharing one macro cache must
// never serve each other's entries: the salted keys differ, so each
// detector's verdicts match a cache-free run exactly.
func TestMacroCacheFeatureSetIsolation(t *testing.T) {
	detV := trainSmall(t, AlgoRF, FeatureSetV)
	detE := trainSmall(t, AlgoRF, FeatureSetEntropy)
	if detV.FeatureSetID() == detE.FeatureSetID() {
		t.Fatal("distinct feature sets share a cache identity")
	}
	src := "Sub q()\nx = Chr(1) & Chr(2) & Chr(3) & Chr(4)\nEnd Sub\n" + strings.Repeat("' pad\n", 30)
	key1 := cache.KeyOfSaltedString(detV.FeatureSetID(), src)
	key2 := cache.KeyOfSaltedString(detE.FeatureSetID(), src)
	if key1 == key2 {
		t.Fatal("salted keys collide across feature sets")
	}

	shared := NewMacroCache(128, 0)
	detV.SetMacroCache(shared)
	detE.SetMacroCache(shared)
	doc := buildDocWith(t, src)

	// Scan with V first (fills the shared cache), then with entropy: the
	// entropy scan must miss V's entry and compute its own verdict.
	rv, err := detV.ScanFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	re, err := detE.ScanFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	detFresh := trainSmall(t, AlgoRF, FeatureSetEntropy)
	rf, err := detFresh.ScanFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Macros) != 1 || len(rf.Macros) != 1 {
		t.Fatalf("macro counts %d/%d", len(re.Macros), len(rf.Macros))
	}
	if re.Macros[0].Score != rf.Macros[0].Score {
		t.Errorf("shared-cache entropy verdict %v != cache-free %v (poisoned by V entry %v)",
			re.Macros[0].Score, rf.Macros[0].Score, rv.Macros[0].Score)
	}
	// Both keys now live in the cache: 2 distinct entries, not 1 shared.
	if got := shared.Stats().Entries; got != 2 {
		t.Errorf("shared cache entries = %d, want 2", got)
	}
}

func TestKeyOfSaltedMatchesString(t *testing.T) {
	if cache.KeyOfSalted("s", []byte("payload")) != cache.KeyOfSaltedString("s", "payload") {
		t.Error("KeyOfSalted and KeyOfSaltedString disagree")
	}
	if cache.KeyOfSalted("a", []byte("b")) == cache.KeyOfSalted("ab", []byte("")) {
		t.Error("salt/payload boundary ambiguous")
	}
	if cache.KeyOfSalted("", []byte("x")) == cache.KeyOf([]byte("x")) {
		t.Error("salted key namespace overlaps unsalted")
	}
}
