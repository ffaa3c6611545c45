package ml

// BatchScorer is implemented by classifiers that can score many feature
// rows in one call, amortizing per-call overhead and keeping model state
// (the flattened tree arrays) cache-resident across the batch.
type BatchScorer interface {
	// ScoreBatch computes Score for every row of X into out; len(out)
	// must equal len(X).
	ScoreBatch(X [][]float64, out []float64)
}

// PredictBatch classifies every row of X, returning labels and decision
// scores. For tree-based classifiers (and Scaled wrappers around them)
// this runs one batched scoring pass — halving the tree walks of the
// Predict-then-Score call pattern — and derives the label from the 0.5
// probability threshold those classifiers' Predict uses. Every label and
// score is bit-identical to per-row Predict and Score calls.
func PredictBatch(c Classifier, X [][]float64) (labels []int, scores []float64) {
	labels = make([]int, len(X))
	scores = make([]float64, len(X))
	predictBatchInto(c, X, labels, scores)
	return labels, scores
}

func predictBatchInto(c Classifier, X [][]float64, labels []int, scores []float64) {
	switch v := c.(type) {
	case *DecisionTree:
		if v.fitted {
			v.ScoreBatch(X, scores)
			thresholdLabels(scores, labels)
			return
		}
	case *RandomForest:
		if v.fitted {
			v.ScoreBatch(X, scores)
			thresholdLabels(scores, labels)
			return
		}
	case *Stacked:
		if v.fitted {
			v.ScoreBatch(X, scores)
			thresholdLabels(scores, labels)
			return
		}
	case *Scaled:
		if v.fitted {
			// Transform each row once and batch into the inner model;
			// the unbatched path transforms twice (Predict and Score).
			tx := make([][]float64, len(X))
			for i, x := range X {
				tx[i] = v.scaler.Transform(x)
			}
			predictBatchInto(v.Inner, tx, labels, scores)
			return
		}
	}
	for i, x := range X {
		labels[i] = c.Predict(x)
		scores[i] = c.Score(x)
	}
}

// thresholdLabels applies the probability-threshold labeling shared by
// DecisionTree.Predict and RandomForest.Predict.
func thresholdLabels(scores []float64, labels []int) {
	for i, s := range scores {
		if s >= 0.5 {
			labels[i] = Positive
		} else {
			labels[i] = Negative
		}
	}
}
