package ml

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// RandomForest is a bagging ensemble of CART trees with per-split feature
// subsampling (√d features per split, scikit-learn's classifier default).
type RandomForest struct {
	// Trees is the ensemble size (default 100, scikit-learn's default).
	Trees int
	// MaxDepth limits individual trees (0 = unlimited).
	MaxDepth int
	// MinSamplesLeaf is the per-leaf minimum (default 1).
	MinSamplesLeaf int
	// Seed drives bootstrapping and feature subsampling. Each tree derives
	// its own RNG from (Seed, tree index), so a fitted forest is
	// bit-identical for a given seed regardless of Workers.
	Seed int64
	// Workers bounds tree-training concurrency (0 = GOMAXPROCS).
	Workers int

	ensemble []*DecisionTree
	fitted   bool
}

// NewRandomForest returns a forest with the scikit-learn-like defaults the
// paper's pipeline uses.
func NewRandomForest(seed int64) *RandomForest {
	return &RandomForest{Trees: 100, Seed: seed}
}

// Name implements Classifier.
func (f *RandomForest) Name() string { return "RF" }

// Fit trains the ensemble on bootstrap resamples of (X, y). Trees are
// independent given their per-tree RNG, so they are trained across Workers
// goroutines; results are deterministic for a fixed Seed whatever the
// worker count.
func (f *RandomForest) Fit(X [][]float64, y []int) error {
	d, err := validate(X, y)
	if err != nil {
		return err
	}
	if f.Trees == 0 {
		f.Trees = 100
	}
	maxFeatures := int(math.Sqrt(float64(d)))
	if maxFeatures < 1 {
		maxFeatures = 1
	}
	workers := f.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > f.Trees {
		workers = f.Trees
	}
	n := len(X)
	f.ensemble = make([]*DecisionTree, f.Trees)
	fitTree := func(t int) {
		rng := rand.New(rand.NewSource(treeSeed(f.Seed, t)))
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		tree := &DecisionTree{
			MaxDepth:       f.MaxDepth,
			MinSamplesLeaf: f.MinSamplesLeaf,
			MaxFeatures:    maxFeatures,
		}
		tree.fitIndexed(X, y, idx, rng)
		f.ensemble[t] = tree
	}
	if workers == 1 {
		for t := range f.ensemble {
			fitTree(t)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					t := int(next.Add(1))
					if t >= f.Trees {
						return
					}
					fitTree(t)
				}
			}()
		}
		wg.Wait()
	}
	f.fitted = true
	return nil
}

// treeSeed derives an independent per-tree RNG seed from the forest seed
// with a splitmix64 finalizer, decorrelating the tree streams.
func treeSeed(seed int64, tree int) int64 {
	z := uint64(seed) + (uint64(tree)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Score returns the mean positive probability across trees.
func (f *RandomForest) Score(x []float64) float64 {
	if !f.fitted || len(f.ensemble) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range f.ensemble {
		sum += t.Score(x)
	}
	return sum / float64(len(f.ensemble))
}

// Predict implements Classifier.
func (f *RandomForest) Predict(x []float64) int {
	if f.Score(x) >= 0.5 {
		return Positive
	}
	return Negative
}

// ScoreBatch scores every row of X into out (len(out) must equal len(X)).
// Iteration is tree-major so each tree's flat node arrays stay hot in
// cache across the whole batch; per row the additions still happen in
// ensemble order, so every out[k] is bit-identical to Score(X[k]).
func (f *RandomForest) ScoreBatch(X [][]float64, out []float64) {
	if !f.fitted || len(f.ensemble) == 0 {
		for k := range out {
			out[k] = 0
		}
		return
	}
	for k := range out {
		out[k] = 0
	}
	for _, t := range f.ensemble {
		for k, x := range X {
			out[k] += t.Score(x)
		}
	}
	n := float64(len(f.ensemble))
	for k := range out {
		out[k] /= n
	}
}

// Importances returns the forest's per-feature Gini importances: the mean
// of the trees' normalized importances, normalized to sum to 1 (nil
// before Fit).
func (f *RandomForest) Importances() []float64 {
	if !f.fitted || len(f.ensemble) == 0 {
		return nil
	}
	var acc []float64
	for _, t := range f.ensemble {
		imp := t.Importances()
		if imp == nil {
			continue
		}
		if acc == nil {
			acc = make([]float64, len(imp))
		}
		for i, v := range imp {
			acc[i] += v
		}
	}
	return normalizeImportance(acc)
}
