package ml

import (
	"fmt"
	"math/rand"
)

// Stacked is a channel-stacking ensemble: the input row is the
// concatenation of named feature channels, each channel gets its own
// RandomForest base learner over its slice of the row, and a logistic
// combiner maps the per-channel probabilities to the final verdict.
//
// The combiner is trained on out-of-fold base predictions (classic
// stacked generalization): K stratified folds, base forests refit on each
// training split, held-out rows scored by forests that never saw them.
// Training on in-fold predictions would let the combiner learn the bases'
// training-set overconfidence instead of their generalization behavior.
//
// Everything is deterministic for a fixed Seed at any Workers setting:
// fold assignment, per-fold forest seeds, and the final base forests all
// derive their randomness from (Seed, role, index) via the same
// splitmix64 finalizer the forest uses per tree.
type Stacked struct {
	// ChannelNames labels the channels, in concatenation order.
	ChannelNames []string
	// Dims are the per-channel widths, in concatenation order; their sum
	// must equal the width of every training/scoring row.
	Dims []int
	// Trees is the per-channel forest size (default 100).
	Trees int
	// Folds is the out-of-fold split count for combiner training
	// (default 5, clamped to the size of the smaller class).
	Folds int
	// Seed drives every random choice in the ensemble.
	Seed int64
	// Workers bounds per-forest tree-training concurrency (0 = GOMAXPROCS).
	Workers int

	bases    []*RandomForest
	combiner *Logit
	fitted   bool
}

// NewStacked returns a stacking ensemble over the given channel layout.
func NewStacked(names []string, dims []int, seed int64) *Stacked {
	return &Stacked{
		ChannelNames: append([]string(nil), names...),
		Dims:         append([]int(nil), dims...),
		Trees:        100,
		Folds:        5,
		Seed:         seed,
	}
}

// Name implements Classifier.
func (s *Stacked) Name() string { return "STACK" }

// stackSeed derives an independent seed for one role (fold f, channel c)
// from the ensemble seed, decorrelating all base-forest RNG streams.
func stackSeed(seed int64, fold, channel int) int64 {
	z := uint64(seed) ^ (uint64(fold)+1)*0xD1B54A32D192ED03
	return treeSeed(int64(z), channel)
}

// sliceChannel views each row's [off, off+dim) columns without copying
// (subslices share the row's backing array).
func sliceChannel(X [][]float64, off, dim int) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = row[off : off+dim]
	}
	return out
}

// newBase builds one channel's forest with a derived seed.
func (s *Stacked) newBase(fold, channel int) *RandomForest {
	rf := NewRandomForest(stackSeed(s.Seed, fold, channel))
	if s.Trees > 0 {
		rf.Trees = s.Trees
	}
	rf.Workers = s.Workers
	return rf
}

// Fit trains the per-channel forests and the out-of-fold combiner.
func (s *Stacked) Fit(X [][]float64, y []int) error {
	d, err := validate(X, y)
	if err != nil {
		return err
	}
	if len(s.Dims) == 0 {
		return fmt.Errorf("%w: stacked ensemble has no channels", ErrBadTrainingData)
	}
	total := 0
	for _, w := range s.Dims {
		if w <= 0 {
			return fmt.Errorf("%w: non-positive channel width %d", ErrBadTrainingData, w)
		}
		total += w
	}
	if total != d {
		return fmt.Errorf("%w: row width %d != channel layout width %d", ErrBadTrainingData, d, total)
	}
	nc := len(s.Dims)
	offs := make([]int, nc)
	for c := 1; c < nc; c++ {
		offs[c] = offs[c-1] + s.Dims[c-1]
	}

	// Out-of-fold meta-features for the combiner: every row is scored by
	// base forests trained without it.
	folds := stratifiedFolds(y, s.Folds, s.Seed)
	meta := make([][]float64, len(X))
	for i := range meta {
		meta[i] = make([]float64, nc)
	}
	for fi, hold := range folds {
		inTrain := make([]bool, len(X))
		for i := range inTrain {
			inTrain[i] = true
		}
		for _, i := range hold {
			inTrain[i] = false
		}
		trX := make([][]float64, 0, len(X)-len(hold))
		trY := make([]int, 0, len(X)-len(hold))
		for i, ok := range inTrain {
			if ok {
				trX = append(trX, X[i])
				trY = append(trY, y[i])
			}
		}
		holdX := make([][]float64, len(hold))
		for k, i := range hold {
			holdX[k] = X[i]
		}
		scores := make([]float64, len(hold))
		for c := 0; c < nc; c++ {
			rf := s.newBase(fi+1, c)
			if err := rf.Fit(sliceChannel(trX, offs[c], s.Dims[c]), trY); err != nil {
				return fmt.Errorf("stack fold %d channel %q: %w", fi, s.channelName(c), err)
			}
			rf.ScoreBatch(sliceChannel(holdX, offs[c], s.Dims[c]), scores)
			for k, i := range hold {
				meta[i][c] = scores[k]
			}
		}
	}
	combiner := NewLogit()
	if err := combiner.Fit(meta, y); err != nil {
		return fmt.Errorf("stack combiner: %w", err)
	}

	// Final base forests see all the data (fold 0 = the deployment role).
	bases := make([]*RandomForest, nc)
	for c := 0; c < nc; c++ {
		rf := s.newBase(0, c)
		if err := rf.Fit(sliceChannel(X, offs[c], s.Dims[c]), y); err != nil {
			return fmt.Errorf("stack channel %q: %w", s.channelName(c), err)
		}
		bases[c] = rf
	}
	s.bases = bases
	s.combiner = combiner
	s.fitted = true
	return nil
}

func (s *Stacked) channelName(c int) string {
	if c < len(s.ChannelNames) {
		return s.ChannelNames[c]
	}
	return fmt.Sprintf("#%d", c)
}

// Score returns the combiner probability for one concatenated row.
func (s *Stacked) Score(x []float64) float64 {
	if !s.fitted {
		return 0
	}
	meta := make([]float64, len(s.bases))
	off := 0
	for c, rf := range s.bases {
		meta[c] = rf.Score(x[off : off+s.Dims[c]])
		off += s.Dims[c]
	}
	return s.combiner.Score(meta)
}

// Predict implements Classifier with the 0.5 probability threshold.
func (s *Stacked) Predict(x []float64) int {
	if s.Score(x) >= 0.5 {
		return Positive
	}
	return Negative
}

// ScoreBatch scores every row of X into out, running each base forest's
// batched scorer over its channel slice (one cache-friendly pass per
// channel) before the per-row combiner fold.
func (s *Stacked) ScoreBatch(X [][]float64, out []float64) {
	if !s.fitted {
		for k := range out {
			out[k] = 0
		}
		return
	}
	nc := len(s.bases)
	cols := make([]float64, len(X)*nc)
	col := make([]float64, len(X))
	off := 0
	for c, rf := range s.bases {
		rf.ScoreBatch(sliceChannel(X, off, s.Dims[c]), col)
		for k, v := range col {
			cols[k*nc+c] = v
		}
		off += s.Dims[c]
	}
	for k := range X {
		out[k] = s.combiner.Score(cols[k*nc : (k+1)*nc])
	}
}

// ChannelScoreBatch scores every row of X per channel: the result is one
// column per base forest, row-major ([row][channel]), the same numbers
// ScoreBatch folds through the combiner. Returns nil before Fit. This is
// the triage/drift surface — per-channel contributions without a second
// forest pass.
func (s *Stacked) ChannelScoreBatch(X [][]float64) [][]float64 {
	if !s.fitted || len(X) == 0 {
		return nil
	}
	nc := len(s.bases)
	out := make([][]float64, len(X))
	for k := range out {
		out[k] = make([]float64, nc)
	}
	col := make([]float64, len(X))
	off := 0
	for c, rf := range s.bases {
		rf.ScoreBatch(sliceChannel(X, off, s.Dims[c]), col)
		for k, v := range col {
			out[k][c] = v
		}
		off += s.Dims[c]
	}
	return out
}

// CombineChannels folds one row of per-channel scores (as produced by
// ChannelScoreBatch) through the fitted combiner — the exact computation
// Score and ScoreBatch end with, exposed so callers that already hold
// channel scores can finish the verdict without a second forest pass.
func (s *Stacked) CombineChannels(meta []float64) float64 {
	if !s.fitted {
		return 0
	}
	return s.combiner.Score(meta)
}

// Bases returns the fitted per-channel forests, in channel order (nil
// before Fit).
func (s *Stacked) Bases() []*RandomForest { return s.bases }

// CombinerWeights returns the combiner's per-channel coefficients and
// intercept (nil, 0 before Fit) — the learned channel weighting.
func (s *Stacked) CombinerWeights() ([]float64, float64) {
	if s.combiner == nil {
		return nil, 0
	}
	return s.combiner.Weights()
}

// stratifiedFolds deals the indices of each class round-robin into k
// folds after a seeded shuffle, so every fold keeps the class balance.
// k is clamped to [2, size of the smaller class] (with fewer than two
// samples of a class, a single degenerate fold would make base training
// single-class; clamping keeps each training split two-class).
func stratifiedFolds(y []int, k int, seed int64) [][]int {
	var pos, neg []int
	for i, v := range y {
		if v == Positive {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	minClass := len(pos)
	if len(neg) < minClass {
		minClass = len(neg)
	}
	if k > minClass {
		k = minClass
	}
	if k < 2 {
		k = 2
	}
	rng := rand.New(rand.NewSource(treeSeed(seed, -1)))
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	folds := make([][]int, k)
	for i, idx := range pos {
		folds[i%k] = append(folds[i%k], idx)
	}
	for i, idx := range neg {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds
}
