package features

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/hostile"
)

func TestRegistryChannels(t *testing.T) {
	want := []string{"v", "j", "entropy", "api"}
	if got := ChannelNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ChannelNames = %v, want %v", got, want)
	}
	for _, name := range want {
		c, ok := LookupChannel(name)
		if !ok {
			t.Fatalf("channel %q not registered", name)
		}
		if c.Dim() != len(c.FeatureNames) {
			t.Errorf("channel %q: Dim %d != len(FeatureNames) %d", name, c.Dim(), len(c.FeatureNames))
		}
		if c.Version != 1 {
			t.Errorf("channel %q: version %d, want 1", name, c.Version)
		}
		if c.ID() != name+"@1" {
			t.Errorf("channel %q: ID %q", name, c.ID())
		}
	}
	if _, ok := LookupChannel("nope"); ok {
		t.Error("LookupChannel accepted unknown name")
	}
}

func TestRegistryDims(t *testing.T) {
	if d := MustChannel("v").Dim(); d != len(VNames) {
		t.Errorf("v dim = %d, want %d", d, len(VNames))
	}
	if d := MustChannel("j").Dim(); d != len(JNames) {
		t.Errorf("j dim = %d, want %d", d, len(JNames))
	}
	if d := MustChannel("entropy").Dim(); d != EntropyDim {
		t.Errorf("entropy dim = %d, want %d", d, EntropyDim)
	}
	if d := MustChannel("api").Dim(); d != APIDim {
		t.Errorf("api dim = %d, want %d", d, APIDim)
	}
	if APIDim != len(VBABuiltins)+len(SuspiciousKeywords)+2 {
		t.Errorf("APIDim = %d inconsistent with lists", APIDim)
	}
	if len(VBABuiltins) != 65 {
		t.Errorf("len(VBABuiltins) = %d, want 65", len(VBABuiltins))
	}
	if len(SuspiciousKeywords) != 46 {
		t.Errorf("len(SuspiciousKeywords) = %d, want 46", len(SuspiciousKeywords))
	}
}

// The registry's v and j extractors must be the same computation as the
// original V()/J() methods — bit-identical, since pre-registry models
// depend on it.
func TestRegistryVJIdentical(t *testing.T) {
	src := "Sub Auto_Open()\n  Dim s As String\n  s = Chr(72) & Chr(105)\n  ' comment\n  MsgBox s\nEnd Sub\n"
	a := Analyze(src)
	if got, want := MustChannel("v").Extract(a), a.V(); !reflect.DeepEqual(got, want) {
		t.Errorf("v channel diverges from V(): %v vs %v", got, want)
	}
	if got, want := MustChannel("j").Extract(a), a.J(); !reflect.DeepEqual(got, want) {
		t.Errorf("j channel diverges from J(): %v vs %v", got, want)
	}
}

func TestRegisterChannelPanics(t *testing.T) {
	for _, c := range []Channel{
		{Name: "", Version: 1, FeatureNames: []string{"x"}, Extract: (*Analysis).V},
		{Name: "bad", Version: 0, FeatureNames: []string{"x"}, Extract: (*Analysis).V},
		{Name: "bad", Version: 1, FeatureNames: nil, Extract: (*Analysis).V},
		{Name: "bad", Version: 1, FeatureNames: []string{"x"}, Extract: nil},
		{Name: "v", Version: 2, FeatureNames: []string{"x"}, Extract: (*Analysis).V}, // duplicate
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterChannel(%+v) did not panic", c)
				}
			}()
			RegisterChannel(c)
		}()
	}
}

func TestEntropySeriesBasics(t *testing.T) {
	// Constant bytes: every window has zero entropy.
	for _, h := range EntropySeries([]byte(strings.Repeat("A", 1000)), 256, 128, 0) {
		if h != 0 {
			t.Fatalf("constant input produced entropy %v", h)
		}
	}
	// Short input: one partial window.
	s := EntropySeries([]byte("AB"), 256, 128, 0)
	if len(s) != 1 || math.Abs(s[0]-1.0) > 1e-12 {
		t.Fatalf("2-byte series = %v, want [1.0]", s)
	}
	// Empty input: empty series.
	if s := EntropySeries(nil, 256, 128, 0); len(s) != 0 {
		t.Fatalf("empty input produced %v", s)
	}
	// maxWindows truncates.
	if s := EntropySeries([]byte(strings.Repeat("x", 10000)), 256, 128, 3); len(s) != 3 {
		t.Fatalf("maxWindows=3 produced %d windows", len(s))
	}
}

// The incremental sliding histogram must agree with recomputing each
// window from scratch, across awkward window/stride combinations
// (stride > window leaves gaps; stride < window overlaps).
func TestEntropySeriesMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	naive := func(data []byte, window, stride int) []float64 {
		var out []float64
		for start := 0; start < len(data); start += stride {
			end := start + window
			if end > len(data) {
				end = len(data)
			}
			var counts [256]int
			for _, b := range data[start:end] {
				counts[b]++
			}
			out = append(out, entropyFromCounts(&counts, end-start))
			if end >= len(data) {
				break
			}
		}
		return out
	}
	for _, tc := range []struct{ window, stride int }{
		{256, 128}, {256, 256}, {100, 300}, {1, 1}, {7, 3}, {3000, 100}, {64, 64},
	} {
		got := EntropySeries(data, tc.window, tc.stride, 0)
		want := naive(data, tc.window, tc.stride)
		if len(got) != len(want) {
			t.Fatalf("w=%d s=%d: len %d vs naive %d", tc.window, tc.stride, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("w=%d s=%d window %d: %v vs naive %v", tc.window, tc.stride, i, got[i], want[i])
			}
		}
	}
}

func TestEntropyChannelDiscriminates(t *testing.T) {
	plain := strings.Repeat("Sub Hello()\n  MsgBox \"Hello, World\"\nEnd Sub\n", 40)
	rng := rand.New(rand.NewSource(42))
	const b64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	blob := make([]byte, 2048)
	for i := range blob {
		blob[i] = b64[rng.Intn(len(b64))]
	}
	packed := "Sub Go()\n  p = \"" + string(blob) + "\"\nEnd Sub\n"

	ep := ExtractEntropy(plain)
	eb := ExtractEntropy(packed)
	if len(ep) != EntropyDim || len(eb) != EntropyDim {
		t.Fatalf("dims %d/%d, want %d", len(ep), len(eb), EntropyDim)
	}
	if eb[1] <= ep[1] {
		t.Errorf("packed max entropy %v not above plain %v", eb[1], ep[1])
	}
	if eb[5] <= ep[5] {
		t.Errorf("packed high-entropy fraction %v not above plain %v", eb[5], ep[5])
	}
	if eb[5] == 0 || eb[7] == 0 {
		t.Errorf("base64 payload produced no high-entropy windows: frac=%v longest=%v", eb[5], eb[7])
	}
	if ep[5] != 0 {
		t.Errorf("plain VBA crossed the high-entropy threshold: frac=%v", ep[5])
	}
}

func TestEntropyChannelEmptyAndFinite(t *testing.T) {
	zero := ExtractEntropy("")
	for i, v := range zero {
		if v != 0 {
			t.Errorf("empty source entropy[%d] = %v, want 0", i, v)
		}
	}
	for _, src := range []string{"A", "\x00\x00\x00", strings.Repeat("\xff", 5000)} {
		for i, v := range ExtractEntropy(src) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("src %q entropy[%d] = %v", src, i, v)
			}
		}
	}
}

func TestEntropyWindowBudget(t *testing.T) {
	lim := hostile.DefaultLimits()
	n := EntropyWindowBudget(lim)
	if n <= 0 {
		t.Fatalf("budget %d", n)
	}
	// The largest admissible macro must fit in the budget exactly.
	if want := int(lim.Normalize().MaxMacroSourceBytes/EntropyStride) + 1; n != want {
		t.Errorf("budget %d, want %d", n, want)
	}
}

func TestAPIChannelCounts(t *testing.T) {
	src := "Sub Auto_Open()\n" +
		"  Dim o\n" +
		"  Set o = CreateObject(\"Wscript.Shell\")\n" +
		"  s = Chr(104) & chr(105) & CHR(33)\n" +
		"  o.Run s\n" +
		"End Sub\n"
	a := Analyze(src)
	v := a.APIChannel()
	if len(v) != APIDim {
		t.Fatalf("dim %d, want %d", len(v), APIDim)
	}
	names := apiFeatureNames()
	idx := func(name string) int {
		for i, n := range names {
			if n == name {
				return i
			}
		}
		t.Fatalf("feature %q missing", name)
		return -1
	}
	code := float64(a.codeChars)
	// Chr appears 3 times in three casings — token matching is
	// case-insensitive.
	if got, want := v[idx("fn_Chr")], 3/code; math.Abs(got-want) > 1e-12 {
		t.Errorf("fn_Chr = %v, want %v", got, want)
	}
	if v[idx("kw_CreateObject")] == 0 {
		t.Error("CreateObject not counted")
	}
	if v[idx("kw_Wscript_Shell")] == 0 {
		t.Error("Wscript.Shell not counted")
	}
	if v[idx("kw_Auto_Open")] == 0 {
		t.Error("Auto_Open not counted")
	}
	if v[idx("kw__Run")] == 0 {
		t.Error(".Run not counted")
	}
	if v[idx("api_fn_total")] == 0 || v[idx("api_kw_total")] == 0 {
		t.Error("block totals are zero")
	}
	// A benign macro without suspicious reach keeps the keyword block at
	// (near) zero.
	benign := Analyze("Sub Add()\n  c = 1 + 2\nEnd Sub\n").APIChannel()
	if got := benign[idx("api_kw_total")]; got != 0 {
		t.Errorf("benign kw total = %v, want 0", got)
	}
}

// Builtins that the lexer classifies as reserved words (Abs, Mid, Xor,
// Open, ...) must still be counted.
func TestAPIChannelKeywordClassifiedBuiltins(t *testing.T) {
	src := "Sub K()\n  a = Abs(-1)\n  m = Mid(s, 1, 2)\n  x = 1 Xor 2\nEnd Sub\n"
	v := ExtractAPI(src)
	names := apiFeatureNames()
	for _, fn := range []string{"fn_Abs", "fn_Mid", "fn_Xor"} {
		found := false
		for i, n := range names {
			if n == fn {
				found = v[i] > 0
				break
			}
		}
		if !found {
			t.Errorf("%s not counted despite appearing in source", fn)
		}
	}
}

// Channel extractors must be pure: repeated and concurrent extraction
// from one shared Analysis yields identical vectors (the macro cache
// shares an Analysis across goroutines).
func TestChannelsPureAndConcurrent(t *testing.T) {
	src := "Sub Auto_Open()\n  Set o = CreateObject(\"Wscript.Shell\")\n  o.Run \"cmd.exe /c whoami\", vbhide\nEnd Sub\n"
	a := Analyze(src)
	type snap struct{ v, j, e, p []float64 }
	base := snap{a.V(), a.J(), a.EntropyChannel(), a.APIChannel()}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got := snap{a.V(), a.J(), a.EntropyChannel(), a.APIChannel()}
				if !reflect.DeepEqual(got, base) {
					errs <- "concurrent extraction diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestAPIFeatureNamesUnique(t *testing.T) {
	names := apiFeatureNames()
	if len(names) != APIDim {
		t.Fatalf("len(names) = %d, want %d", len(names), APIDim)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func TestCountSub(t *testing.T) {
	for _, tc := range []struct {
		b, pat string
		want   int
	}{
		{"abcabcabc", "abc", 3},
		{"aaaa", "aa", 2}, // non-overlapping
		{"", "a", 0},
		{"abc", "", 0},
		{"abc", "abcd", 0},
		{"shell shell.application", "shell", 2},
	} {
		if got := countSub([]byte(tc.b), tc.pat); got != tc.want {
			t.Errorf("countSub(%q, %q) = %d, want %d", tc.b, tc.pat, got, tc.want)
		}
	}
}

// The keyword automaton must reproduce the per-pattern substring scan
// exactly, on the SmallSpec corpus and on random keyword-dense strings
// that splice overlapping patterns (Shell/ShellExecute/Wscript.Shell,
// Open/Auto_Open, Virtual/VirtualAllocEx) in random case.
func TestKeywordAutomatonMatchesOracle(t *testing.T) {
	check := func(src string) {
		t.Helper()
		var got [numSuspicious]int
		keywordAutomaton.count(src, &got)
		if want := keywordCountsOracle(src); got != want {
			t.Fatalf("src %q: automaton %v, reference %v", src, got, want)
		}
	}
	for _, src := range corpus.GenerateMacros(corpus.SmallSpec()).Sources() {
		check(src)
	}
	// Patterns that overlap themselves and each other exercise the
	// per-pattern non-overlap rule, which no SuspiciousKeywords entry
	// can trigger on its own.
	selfOverlap := []string{"aa", "aba", "abab", "b", "bab"}
	small := newKWAutomaton(selfOverlap)
	for _, src := range []string{"aaaa", "aaaaa", "ababababa", "abaababa", "AbAbAb", "babab", "aXaa\x80aa"} {
		var got [numSuspicious]int
		small.count(src, &got)
		for i, pat := range selfOverlap {
			if want := countSub(appendLowerASCII(nil, src), pat); got[i] != want {
				t.Errorf("src %q pattern %q: automaton %d, reference %d", src, pat, got[i], want)
			}
		}
	}

	rng := rand.New(rand.NewSource(11))
	noise := []string{"", " ", ".", "_", "a", "e", "\x80", "\xff", "\n", "ll", "op"}
	var sb strings.Builder
	for n := 0; n < 2000; n++ {
		sb.Reset()
		for k := rng.Intn(12); k >= 0; k-- {
			kw := SuspiciousKeywords[rng.Intn(len(SuspiciousKeywords))]
			if rng.Intn(3) == 0 {
				kw = kw[rng.Intn(len(kw)):] // a suffix, to land mid-pattern
			}
			for i := 0; i < len(kw); i++ {
				c := kw[i]
				if rng.Intn(2) == 0 {
					c = strings.ToUpper(string(c))[0]
				} else {
					c = strings.ToLower(string(c))[0]
				}
				sb.WriteByte(c)
			}
			sb.WriteString(noise[rng.Intn(len(noise))])
		}
		check(sb.String())
	}
}

// The api and entropy channels allocate exactly their output vector: the
// keyword counts, the token case-folding buffer and the window histogram
// all live on the stack.
func TestChannelAllocs(t *testing.T) {
	src := strings.Repeat("Sub Auto_Open()\n  Set o = CreateObject(\"Wscript.Shell\")\n  o.Run Chr(99) & \"md.exe\", vbhide\nEnd Sub\n", 20)
	a := Analyze(src)
	for _, tc := range []struct {
		name string
		fn   func() []float64
	}{
		{"api", a.APIChannel},
		{"entropy", a.EntropyChannel},
	} {
		if n := testing.AllocsPerRun(50, func() { tc.fn() }); n != 1 {
			t.Errorf("%s channel: %v allocs per call, want 1 (the output vector)", tc.name, n)
		}
	}
}
