// Package ml implements from scratch the five supervised classifiers the
// paper evaluates (§IV.D): Support Vector Machine with an RBF kernel
// (SMO training, C=150, γ=0.03 as in the paper), Random Forest,
// Multi-Layer Perceptron, Linear Discriminant Analysis, and Bernoulli
// Naive Bayes — plus the standardization preprocessing scikit-learn
// applies implicitly in such pipelines.
//
// All classifiers are binary (labels 0 and 1, where 1 means "obfuscated"),
// deterministic for a fixed seed, and expose a real-valued Score used for
// ROC/AUC computation.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// Label values used throughout: 1 = positive (obfuscated), 0 = negative.
const (
	Negative = 0
	Positive = 1
)

// ErrBadTrainingData reports degenerate training input.
var ErrBadTrainingData = errors.New("ml: bad training data")

// Classifier is a binary classifier.
type Classifier interface {
	// Name identifies the algorithm (e.g. "SVM", "RF").
	Name() string
	// Fit trains on feature rows X with labels y (0 or 1).
	Fit(X [][]float64, y []int) error
	// Predict returns the predicted label for one feature row.
	Predict(x []float64) int
	// Score returns a real-valued decision score, monotone in the
	// probability of the positive class (used for ROC curves).
	Score(x []float64) float64
}

// validate checks the common preconditions of Fit implementations.
func validate(X [][]float64, y []int) (dim int, err error) {
	if len(X) == 0 || len(X) != len(y) {
		return 0, fmt.Errorf("%w: %d rows, %d labels", ErrBadTrainingData, len(X), len(y))
	}
	dim = len(X[0])
	if dim == 0 {
		return 0, fmt.Errorf("%w: zero-dimensional features", ErrBadTrainingData)
	}
	var pos, neg bool
	for i, row := range X {
		if len(row) != dim {
			return 0, fmt.Errorf("%w: row %d has %d features, want %d", ErrBadTrainingData, i, len(row), dim)
		}
		switch y[i] {
		case Positive:
			pos = true
		case Negative:
			neg = true
		default:
			return 0, fmt.Errorf("%w: label %d is not 0/1", ErrBadTrainingData, y[i])
		}
	}
	if !pos || !neg {
		return 0, fmt.Errorf("%w: training data must contain both classes", ErrBadTrainingData)
	}
	return dim, nil
}

// StandardScaler standardizes features to zero mean and unit variance, the
// preprocessing the paper's scikit-learn pipeline uses for SVM/MLP/LDA.
type StandardScaler struct {
	Mean []float64
	Std  []float64
}

// Fit computes per-feature mean and standard deviation.
func (s *StandardScaler) Fit(X [][]float64) error {
	if len(X) == 0 {
		return fmt.Errorf("%w: empty matrix", ErrBadTrainingData)
	}
	d := len(X[0])
	for i, row := range X {
		if len(row) != d {
			return fmt.Errorf("%w: row %d has %d features, want %d", ErrBadTrainingData, i, len(row), d)
		}
	}
	s.Mean = make([]float64, d)
	s.Std = make([]float64, d)
	for _, row := range X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	n := float64(len(X))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1 // constant feature: leave centered at zero
		}
	}
	return nil
}

// Transform standardizes one row (allocating a new slice).
func (s *StandardScaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// TransformAll standardizes every row.
func (s *StandardScaler) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Transform(row)
	}
	return out
}

// Scaled wraps a classifier with an input StandardScaler so feature
// scaling travels with the model.
type Scaled struct {
	Inner  Classifier
	scaler StandardScaler
	fitted bool
}

// NewScaled wraps inner with standardization.
func NewScaled(inner Classifier) *Scaled { return &Scaled{Inner: inner} }

// Name returns the inner classifier's name.
func (s *Scaled) Name() string { return s.Inner.Name() }

// Fit fits the scaler on X, then the inner classifier on scaled X.
func (s *Scaled) Fit(X [][]float64, y []int) error {
	if err := s.scaler.Fit(X); err != nil {
		return err
	}
	if err := s.Inner.Fit(s.scaler.TransformAll(X), y); err != nil {
		return err
	}
	s.fitted = true
	return nil
}

// Predict classifies one raw (unscaled) row.
func (s *Scaled) Predict(x []float64) int {
	if !s.fitted {
		return Negative
	}
	return s.Inner.Predict(s.scaler.Transform(x))
}

// Score returns the inner decision score for one raw row.
func (s *Scaled) Score(x []float64) float64 {
	if !s.fitted {
		return 0
	}
	return s.Inner.Score(s.scaler.Transform(x))
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}
