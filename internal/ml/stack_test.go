package ml

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// stackDataset builds a two-channel synthetic problem where each channel
// is individually noisy but the channels disagree on different rows, so
// stacking has something to gain. Channel A = 3 dims, channel B = 2 dims.
func stackDataset(n int, seed int64) (X [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		label := i % 2
		row := make([]float64, 5)
		// Channel A separates along dim 0 with noise.
		row[0] = float64(label) + rng.NormFloat64()*0.6
		row[1] = rng.NormFloat64()
		row[2] = rng.NormFloat64() * 0.5
		// Channel B separates along dim 3 with different noise.
		row[3] = float64(label)*1.5 + rng.NormFloat64()*0.8
		row[4] = rng.NormFloat64()
		X = append(X, row)
		y = append(y, label)
	}
	return X, y
}

func fitStack(t *testing.T, seed int64) (*Stacked, [][]float64, []int) {
	t.Helper()
	X, y := stackDataset(160, 11)
	s := NewStacked([]string{"a", "b"}, []int{3, 2}, seed)
	s.Trees = 15
	if err := s.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return s, X, y
}

func TestLogitLearnsLinearRule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		label := i % 2
		X = append(X, []float64{float64(label) + rng.NormFloat64()*0.3, rng.NormFloat64()})
		y = append(y, label)
	}
	l := NewLogit()
	if err := l.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	correct := 0
	for i, x := range X {
		if l.Predict(x) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.9 {
		t.Errorf("training accuracy %.3f < 0.9", acc)
	}
	w, _ := l.Weights()
	if w[0] <= 0 {
		t.Errorf("separating weight %v not positive", w[0])
	}
	for _, x := range X {
		if s := l.Score(x); s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("score %v outside [0,1]", s)
		}
	}
}

func TestLogitUnfitted(t *testing.T) {
	l := NewLogit()
	if l.Predict([]float64{1}) != Negative || l.Score([]float64{1}) != 0 {
		t.Error("unfitted logit must refuse positively")
	}
}

func TestStackedFitPredict(t *testing.T) {
	s, X, y := fitStack(t, 42)
	correct := 0
	for i, x := range X {
		if s.Predict(x) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.8 {
		t.Errorf("training accuracy %.3f < 0.8", acc)
	}
	for _, x := range X {
		if sc := s.Score(x); sc < 0 || sc > 1 || math.IsNaN(sc) {
			t.Fatalf("score %v outside [0,1]", sc)
		}
	}
	if got := len(s.Bases()); got != 2 {
		t.Errorf("bases = %d, want 2", got)
	}
	if w, _ := s.CombinerWeights(); len(w) != 2 {
		t.Errorf("combiner weights = %v, want 2 dims", w)
	}
}

func TestStackedDeterministicAcrossWorkers(t *testing.T) {
	X, y := stackDataset(120, 5)
	score := func(workers int) []float64 {
		s := NewStacked([]string{"a", "b"}, []int{3, 2}, 7)
		s.Trees = 10
		s.Workers = workers
		if err := s.Fit(X, y); err != nil {
			t.Fatalf("Fit workers=%d: %v", workers, err)
		}
		out := make([]float64, len(X))
		s.ScoreBatch(X, out)
		return out
	}
	one := score(1)
	many := score(4)
	if !reflect.DeepEqual(one, many) {
		t.Error("stacked scores differ across worker counts")
	}
}

func TestStackedBatchMatchesSingle(t *testing.T) {
	s, X, _ := fitStack(t, 9)
	batch := make([]float64, len(X))
	s.ScoreBatch(X, batch)
	for i, x := range X {
		if got := s.Score(x); got != batch[i] {
			t.Fatalf("row %d: batch %v != single %v", i, batch[i], got)
		}
	}
	labels, scores := PredictBatch(s, X)
	for i, x := range X {
		if labels[i] != s.Predict(x) || scores[i] != s.Score(x) {
			t.Fatalf("PredictBatch row %d diverges", i)
		}
	}
}

func TestStackedSnapshotRoundTrip(t *testing.T) {
	s, X, _ := fitStack(t, 33)
	blob, err := Save(s)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored, err := Load(blob)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rs, ok := restored.(*Stacked)
	if !ok {
		t.Fatalf("restored type %T", restored)
	}
	if !reflect.DeepEqual(rs.ChannelNames, s.ChannelNames) || !reflect.DeepEqual(rs.Dims, s.Dims) {
		t.Error("channel layout not preserved")
	}
	for _, x := range X {
		if rs.Score(x) != s.Score(x) {
			t.Fatal("restored stack scores diverge")
		}
		if rs.Predict(x) != s.Predict(x) {
			t.Fatal("restored stack labels diverge")
		}
	}
}

func TestLogitSnapshotRoundTrip(t *testing.T) {
	X := [][]float64{{0, 1}, {1, 0}, {0.9, 0.1}, {0.1, 0.8}}
	y := []int{0, 1, 1, 0}
	l := NewLogit()
	if err := l.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	blob, err := Save(l)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored, err := Load(blob)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, x := range X {
		if restored.Score(x) != l.Score(x) {
			t.Fatal("restored logit diverges")
		}
	}
}

func TestStackedRejectsBadLayout(t *testing.T) {
	X, y := stackDataset(40, 1)
	s := NewStacked([]string{"a", "b"}, []int{3, 3}, 1) // widths sum to 6, rows are 5
	if err := s.Fit(X, y); !errors.Is(err, ErrBadTrainingData) {
		t.Errorf("layout mismatch error = %v, want ErrBadTrainingData", err)
	}
	s = NewStacked(nil, nil, 1)
	if err := s.Fit(X, y); !errors.Is(err, ErrBadTrainingData) {
		t.Errorf("empty layout error = %v, want ErrBadTrainingData", err)
	}
	var unfitted Stacked
	if unfitted.Predict([]float64{1, 2, 3, 4, 5}) != Negative {
		t.Error("unfitted stack must predict negative")
	}
}

func TestStratifiedFolds(t *testing.T) {
	y := make([]int, 100)
	for i := range y {
		if i%3 == 0 {
			y[i] = 1
		}
	}
	folds := stratifiedFolds(y, 5, 42)
	if len(folds) != 5 {
		t.Fatalf("%d folds, want 5", len(folds))
	}
	seen := map[int]bool{}
	for _, fold := range folds {
		pos := 0
		for _, i := range fold {
			if seen[i] {
				t.Fatalf("index %d in two folds", i)
			}
			seen[i] = true
			if y[i] == 1 {
				pos++
			}
		}
		// 34 positives over 5 folds: every fold holds 6-7.
		if pos < 6 || pos > 7 {
			t.Errorf("fold has %d positives, want 6-7", pos)
		}
	}
	if len(seen) != len(y) {
		t.Errorf("folds cover %d of %d indices", len(seen), len(y))
	}
	// Deterministic for a fixed seed.
	if !reflect.DeepEqual(folds, stratifiedFolds(y, 5, 42)) {
		t.Error("folds not deterministic")
	}
	// k clamps to the smaller class.
	tiny := []int{1, 1, 0, 0, 0, 0}
	if got := len(stratifiedFolds(tiny, 5, 1)); got != 2 {
		t.Errorf("clamped folds = %d, want 2", got)
	}
}

func TestStackedChannelScoreBatch(t *testing.T) {
	s, X, _ := fitStack(t, 5)
	cols := s.ChannelScoreBatch(X)
	if len(cols) != len(X) {
		t.Fatalf("rows = %d, want %d", len(cols), len(X))
	}
	out := make([]float64, len(X))
	s.ScoreBatch(X, out)
	for k, row := range cols {
		if len(row) != len(s.Bases()) {
			t.Fatalf("row %d has %d channels", k, len(row))
		}
		// The combiner over the per-channel scores must reproduce the
		// ensemble score exactly — same numbers, same fold.
		if got := s.combiner.Score(row); math.Abs(got-out[k]) > 1e-15 {
			t.Fatalf("row %d: combiner(channel scores) = %g, ScoreBatch = %g", k, got, out[k])
		}
	}
	var unfitted Stacked
	if cols := unfitted.ChannelScoreBatch(X); cols != nil {
		t.Fatalf("unfitted ChannelScoreBatch = %v", cols)
	}
}
