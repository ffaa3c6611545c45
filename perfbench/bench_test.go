package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 0.99, true}, // p99.9 is supported but above the asked p99
		{1000, 0.99, true},   // exactly ten beyond p99
		{999, 0.95, true},    // nine beyond p99
		{200, 0.95, true},
		{199, 0.9, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		q, ok := tailQuantile(tc.n, 0.99)
		if q != tc.want || ok != tc.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.want, tc.ok)
		}
	}
	if q, _ := tailQuantile(100000, 0.999); q != 0.999 {
		t.Errorf("tailQuantile(100000, 0.999) = %v, want 0.999", q)
	}
}

func TestQuantileOfNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i))
	}
	for q, want := range map[float64]time.Duration{0.5: 50, 0.99: 99, 0.9: 90, 1: 100} {
		if got := quantileOf(s, q); got != want {
			t.Errorf("quantileOf(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if s[0] != 100 {
		t.Error("quantileOf reordered its input")
	}
}

func TestSelfNS(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping children count once", []interval{{10, 30}, {20, 50}}, 60},
		{"nested child", []interval{{10, 50}, {20, 30}}, 60},
		{"clipped to the parent", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside the parent", []interval{{100, 150}}, 100},
		{"fully covered", []interval{{0, 60}, {40, 100}}, 0},
	} {
		if got := selfNS(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfNS = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestQuantileBoundMS(t *testing.T) {
	h := histogram{Count: 100, Buckets: map[string]int64{
		"le_1ms": 50, "le_5ms": 99, "le_10ms": 100, "le_inf": 100,
	}}
	if got := quantileBoundMS(h, 0.5); got != 1 {
		t.Errorf("p50 bound = %v, want 1", got)
	}
	if got := quantileBoundMS(h, 0.99); got != 5 {
		t.Errorf("p99 bound = %v, want 5", got)
	}
	if got := quantileBoundMS(histogram{}, 0.99); got != 0 {
		t.Errorf("empty histogram bound = %v, want 0", got)
	}
}

// encodeLikeServer renders a response the way the daemon's writeJSON does.
func encodeLikeServer(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestNormalizeVerdict(t *testing.T) {
	rep := &core.FileReport{
		Format:  "ole",
		Project: "VBAProject",
		Macros: []core.MacroVerdict{{
			Module: "Module1", Obfuscated: true, Score: 0.8125,
			Channels: []core.ChannelScore{{Channel: "overall", Score: 0.8125, Weight: 1}},
			Source:   `Sub A(): Shell "cmd /c a<b&c>d": End Sub`,
		}},
		Skipped: 1,
	}
	ref, err := verdictOf(rep)
	if err != nil {
		t.Fatal(err)
	}
	daemon := encodeLikeServer(t, server.ScanResponse{
		RequestID: "req-1", TraceID: "0af7651916cd43dd8448eb211c80319c", File: "a.doc",
		Report: rep.JSON(), Stages: &server.StageMS{Extract: 1, Featurize: 2, Classify: 3},
		ElapsedMS: 4.5,
	})
	// A gateway answer: the same report, served from the shared tier.
	gateway := encodeLikeServer(t, server.ScanResponse{
		RequestID: "gw-9", File: "b.doc", Report: rep.JSON(),
		Cached: true, SharedCache: true, Backend: "127.0.0.1:1234", ElapsedMS: 0.2,
	})
	for name, body := range map[string][]byte{"daemon": daemon, "gateway": gateway} {
		got, err := normalizeVerdict(body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("%s answer normalizes to\n%s\nwant\n%s", name, got, ref)
		}
	}

	rep.Macros[0].Score = 0.8126
	changed, err := verdictOf(rep)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(changed, ref) {
		t.Error("a different score normalized to the same verdict")
	}
	if _, err := normalizeVerdict([]byte("not json")); err == nil {
		t.Error("normalizeVerdict accepted a body that is not JSON")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	const n = 400
	a, err := campaignInputs(smallSpec(), 7, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaignInputs(smallSpec(), 7, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.docs) != len(b.docs) || len(a.stream) != n || len(b.stream) != n {
		t.Fatalf("sizes differ: %d/%d docs, %d/%d requests", len(a.docs), len(b.docs), len(a.stream), len(b.stream))
	}
	for i := range a.stream {
		if a.stream[i] != b.stream[i] || !bytes.Equal(a.docAt(i).data, b.docAt(i).data) {
			t.Fatalf("request %d differs between two builds from one seed", i)
		}
	}
	c, err := campaignInputs(smallSpec(), 8, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.docAt(0).data, c.docAt(0).data) {
		t.Error("seeds 7 and 8 built the same first document")
	}

	// The mix: repeats resend earlier bytes, re-packaged documents carry
	// earlier macros in new bytes, fresh ones carry unseen macros.
	seenDoc := map[int]bool{}
	seenSrc := map[string]bool{}
	seenBytes := map[string]bool{}
	var repeats, repackaged, fresh int
	for _, k := range a.stream {
		d := &a.docs[k]
		switch {
		case seenDoc[k]:
			repeats++
		case d.fresh:
			fresh++
			for _, s := range d.sources {
				if seenSrc[s] {
					t.Fatalf("fresh document %s carries an earlier macro", d.name)
				}
			}
		default:
			repackaged++
			for _, s := range d.sources {
				if !seenSrc[s] {
					t.Fatalf("re-packaged document %s carries an unseen macro", d.name)
				}
			}
			if seenBytes[string(d.data)] {
				t.Fatalf("re-packaged document %s repeats earlier bytes", d.name)
			}
		}
		seenDoc[k] = true
		seenBytes[string(d.data)] = true
		for _, s := range d.sources {
			seenSrc[s] = true
		}
	}
	for name, got := range map[string]struct {
		n     int
		share float64
	}{"repeat": {repeats, campaignRepeatShare}, "re-packaged": {repackaged, campaignRepackagedShare},
		"fresh": {fresh, 1 - campaignRepeatShare - campaignRepackagedShare}} {
		if share := float64(got.n) / n; share < got.share-0.07 || share > got.share+0.07 {
			t.Errorf("%s share %.3f, want about %.2f", name, share, got.share)
		}
	}
	for _, k := range a.warm {
		for _, s := range a.docs[k].sources {
			if seenSrc[s] {
				t.Errorf("warm-up document %s shares a macro with the stream", a.docs[k].name)
			}
		}
	}
}

// fakeFront answers every document with its reference after a short
// pause, except documents named "bad", whose answer differs.
type fakeFront struct{ calls atomic.Int64 }

func (f *fakeFront) scan(ctx context.Context, d *doc) ([]byte, error) {
	f.calls.Add(1)
	time.Sleep(100 * time.Microsecond)
	if d.name == "bad" {
		return []byte("{}"), nil
	}
	return d.ref, nil
}

func (f *fakeFront) close() {}

func TestLoopsCountEveryRequest(t *testing.T) {
	in := &inputs{cyclic: true, stream: []int{0, 1, 0, 1}, docs: []doc{
		{name: "a", ref: []byte(`{"report":1}`)},
		{name: "bad", ref: []byte(`{"report":2}`)},
	}}
	f := &fakeFront{}
	sys := &systems{b: &bench{in: in}, cur: f}
	closed, err := closedLoop(context.Background(), sys, in, 2, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if closed.attempted == 0 || int64(closed.attempted) != f.calls.Load() || len(closed.lat) != closed.attempted {
		t.Fatalf("closed loop: %d attempted, %d calls, %d latencies", closed.attempted, f.calls.Load(), len(closed.lat))
	}
	// Requests alternate between the good and the bad document.
	if d := closed.attempted - 2*closed.failed; d < -2 || d > 2 || !errors.Is(closed.firstErr, errMismatch) {
		t.Errorf("closed loop: %d of %d failed (%v), want about half as mismatches", closed.failed, closed.attempted, closed.firstErr)
	}

	open, err := openLoop(context.Background(), sys, in, 2, 2000, 100, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if open.attempted != 100 || open.failed != 50 || len(open.lat) != 100 || len(open.late) != 100 {
		t.Fatalf("open loop: %d attempted, %d failed, %d latencies, %d lateness samples; want 100, 50, 100, 100",
			open.attempted, open.failed, len(open.lat), len(open.late))
	}
	for i, l := range open.lat {
		if in.docAt(i).name == "bad" && l != failedLatency {
			t.Fatalf("failed request %d has latency %v, want it counted as infinite", i, l)
		}
	}
}

func TestCalmRounds(t *testing.T) {
	for _, tc := range []struct {
		steal []float64
		want  []int
	}{
		// every round undisturbed: all kept
		{[]float64{0, 0.01, 0.005, 0}, []int{0, 1, 2, 3}},
		// one disturbed round is dropped
		{[]float64{0.002, 0.09, 0.004, 0.01}, []int{0, 2, 3}},
		// all disturbed: the calmer half, in round order
		{[]float64{0.2, 0.05, 0.12, 0.04, 0.3, 0.06}, []int{1, 3, 5}},
		// odd count: the calmer half rounds up
		{[]float64{0.05, 0.04, 0.06}, []int{0, 1}},
	} {
		got := calmRounds(tc.steal)
		if len(got) != len(tc.want) {
			t.Errorf("calmRounds(%v) = %v, want %v", tc.steal, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("calmRounds(%v) = %v, want %v", tc.steal, got, tc.want)
				break
			}
		}
	}
}

func TestStealSinceUnknownStart(t *testing.T) {
	if got := stealSince(cpuTicks{}); got != 0 {
		t.Errorf("stealSince(unknown) = %v, want 0", got)
	}
	if got := stealSince(readCPUTicks()); got < 0 || got > 1 {
		t.Errorf("stealSince = %v, want a share in [0, 1]", got)
	}
}
