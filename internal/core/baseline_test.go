package core

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/telemetry"
)

// stripJSONField rewrites a plain-JSON model blob without the named
// top-level field, simulating a model saved before that field existed.
func stripJSONField(blob []byte, field string) ([]byte, error) {
	var head map[string]json.RawMessage
	if err := json.Unmarshal(blob, &head); err != nil {
		return nil, err
	}
	delete(head, field)
	return json.Marshal(head)
}

// assertBaseline checks one channel's baseline is a well-formed score
// distribution: the right bin count, proportions summing to ~1, and a
// training-population count.
func assertBaseline(t *testing.T, b ChannelBaseline) {
	t.Helper()
	if len(b.Bins) != telemetry.DriftBins {
		t.Fatalf("channel %q: %d bins, want %d", b.Channel, len(b.Bins), telemetry.DriftBins)
	}
	var sum float64
	for _, p := range b.Bins {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("channel %q: bin proportions sum to %v", b.Channel, sum)
	}
	if b.Count <= 0 {
		t.Fatalf("channel %q: count = %d", b.Channel, b.Count)
	}
}

// TestBaselinesPersistRoundTrip checks train-time score baselines are
// computed for the trained channels, survive both a plain-JSON model and
// one wrapped in a legacy model container byte-for-byte, and stay absent
// (not fabricated) on models saved before baselines existed.
func TestBaselinesPersistRoundTrip(t *testing.T) {
	det := trainSmall(t, AlgoRF, FeatureSetV)
	base := det.Baselines()
	if len(base) != 1 || base[0].Channel != "overall" {
		t.Fatalf("RF baselines = %+v, want one overall channel", base)
	}
	assertBaseline(t, base[0])

	for name, save := range map[string]func() ([]byte, error){
		"plain": det.SaveModel,
		"container": func() ([]byte, error) {
			blob, err := det.SaveModel()
			return legacyContainer(blob, modelContainerVersion, arbitrarySection), err
		},
	} {
		blob, err := save()
		if err != nil {
			t.Fatalf("%s save: %v", name, err)
		}
		restored, err := LoadModel(blob)
		if err != nil {
			t.Fatalf("%s load: %v", name, err)
		}
		got := restored.Baselines()
		if len(got) != len(base) {
			t.Fatalf("%s: %d baselines after reload, want %d", name, len(got), len(base))
		}
		for i := range got {
			if got[i].Channel != base[i].Channel || got[i].Count != base[i].Count ||
				got[i].Mean != base[i].Mean {
				t.Fatalf("%s: baseline %d drifted: %+v vs %+v", name, i, got[i], base[i])
			}
			for j := range got[i].Bins {
				if got[i].Bins[j] != base[i].Bins[j] {
					t.Fatalf("%s: channel %q bin %d drifted", name, got[i].Channel, j)
				}
			}
		}
	}
}

// TestBaselinesStackedPerChannel checks the stacking ensemble records
// one baseline per feature channel plus the overall distribution, with
// channels matching the verdicts' per-channel contributions.
func TestBaselinesStackedPerChannel(t *testing.T) {
	det := trainSmall(t, AlgoStack, FeatureSetStack)
	base := det.Baselines()
	if len(base) < 2 {
		t.Fatalf("stacked baselines = %+v, want overall + per-channel", base)
	}
	names := map[string]bool{}
	for _, b := range base {
		assertBaseline(t, b)
		names[b.Channel] = true
	}
	if !names["overall"] {
		t.Fatal("stacked baselines missing the overall channel")
	}

	// Every channel a verdict reports must have a train-time baseline to
	// drift against.
	v, err := det.ClassifySource(probeSources()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Channels) < 2 {
		t.Fatalf("stacked verdict channels = %+v", v.Channels)
	}
	for _, ch := range v.Channels {
		if !names[ch.Channel] {
			t.Fatalf("verdict channel %q has no baseline (have %v)", ch.Channel, names)
		}
	}
}

// TestBaselinesAbsentOnLegacyModel checks a model head without the
// baselines field loads with nil baselines rather than inventing them.
func TestBaselinesAbsentOnLegacyModel(t *testing.T) {
	det := trainSmall(t, AlgoRF, FeatureSetV)
	blob, err := det.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := stripJSONField(blob, "baselines")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadModel(legacy)
	if err != nil {
		t.Fatalf("legacy model load: %v", err)
	}
	if restored.Baselines() != nil {
		t.Fatalf("legacy model grew baselines: %+v", restored.Baselines())
	}
	assertSameVerdicts(t, det, restored)
}
