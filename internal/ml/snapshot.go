package ml

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Model (de)serialization: Save captures any fitted classifier from this
// package into a self-describing JSON blob; Load restores it. This is what
// lets a trained detector ship without its training corpus.

// Save serializes a fitted classifier.
func Save(c Classifier) ([]byte, error) {
	var payload any
	var kind string
	switch v := c.(type) {
	case *Scaled:
		inner, err := Save(v.Inner)
		if err != nil {
			return nil, err
		}
		kind = "scaled"
		payload = scaledState{Scaler: v.scaler, Inner: inner, Fitted: v.fitted}
	case *SVM:
		kind = "svm"
		payload = svmState{
			C: v.C, Gamma: v.Gamma, B: v.b,
			Vectors: v.vectors, Coef: v.coef, Fitted: v.fitted,
		}
	case *RandomForest:
		kind = "rf"
		trees := make([]*nodeState, len(v.ensemble))
		for i, t := range v.ensemble {
			trees[i] = snapshotNode(t.root)
		}
		payload = rfState{Trees: trees, Fitted: v.fitted}
	case *DecisionTree:
		kind = "tree"
		payload = treeState{Root: snapshotNode(v.root), Fitted: v.fitted}
	case *MLP:
		kind = "mlp"
		payload = mlpState{W1: v.w1, B1: v.b1, W2: v.w2, B2: v.b2, Fitted: v.fitted}
	case *LDA:
		kind = "lda"
		payload = ldaState{W: v.w, Bias: v.bias, Fitted: v.fitted}
	case *Logit:
		kind = "logit"
		payload = logitState{W: v.w, B: v.b, LR: v.LR, Iters: v.Iters, L2: v.L2, Fitted: v.fitted}
	case *Stacked:
		kind = "stack"
		bases := make([]json.RawMessage, len(v.bases))
		for i, rf := range v.bases {
			blob, err := Save(rf)
			if err != nil {
				return nil, err
			}
			bases[i] = blob
		}
		var combiner json.RawMessage
		if v.combiner != nil {
			blob, err := Save(v.combiner)
			if err != nil {
				return nil, err
			}
			combiner = blob
		}
		payload = stackState{
			Channels: v.ChannelNames, Dims: v.Dims, Trees: v.Trees,
			Folds: v.Folds, Seed: v.Seed,
			Bases: bases, Combiner: combiner, Fitted: v.fitted,
		}
	case *BernoulliNB:
		kind = "bnb"
		payload = bnbState{
			Thresholds: v.thresholds,
			LogPrior:   v.logPrior[:],
			LogProb:    [][]float64{v.logProb[0], v.logProb[1]},
			LogNot:     [][]float64{v.logNot[0], v.logNot[1]},
			Fitted:     v.fitted,
		}
	default:
		return nil, fmt.Errorf("ml: cannot serialize classifier type %T", c)
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{Kind: kind, Body: body})
}

// Load restores a classifier saved with Save.
func Load(data []byte) (Classifier, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("ml: bad model envelope: %w", err)
	}
	switch env.Kind {
	case "scaled":
		var st scaledState
		if err := json.Unmarshal(env.Body, &st); err != nil {
			return nil, err
		}
		inner, err := Load(st.Inner)
		if err != nil {
			return nil, err
		}
		return &Scaled{Inner: inner, scaler: st.Scaler, fitted: st.Fitted}, nil
	case "svm":
		var st svmState
		if err := json.Unmarshal(env.Body, &st); err != nil {
			return nil, err
		}
		return &SVM{C: st.C, Gamma: st.Gamma, b: st.B, vectors: st.Vectors, coef: st.Coef, fitted: st.Fitted}, nil
	case "rf":
		var st rfState
		if err := json.Unmarshal(env.Body, &st); err != nil {
			return nil, err
		}
		rf := &RandomForest{fitted: st.Fitted}
		for _, ts := range st.Trees {
			rf.ensemble = append(rf.ensemble, restoreTree(ts, true))
		}
		return rf, nil
	case "tree":
		var st treeState
		if err := json.Unmarshal(env.Body, &st); err != nil {
			return nil, err
		}
		return restoreTree(st.Root, st.Fitted), nil
	case "mlp":
		var st mlpState
		if err := json.Unmarshal(env.Body, &st); err != nil {
			return nil, err
		}
		return &MLP{w1: st.W1, b1: st.B1, w2: st.W2, b2: st.B2, fitted: st.Fitted}, nil
	case "lda":
		var st ldaState
		if err := json.Unmarshal(env.Body, &st); err != nil {
			return nil, err
		}
		return &LDA{w: st.W, bias: st.Bias, fitted: st.Fitted}, nil
	case "logit":
		var st logitState
		if err := json.Unmarshal(env.Body, &st); err != nil {
			return nil, err
		}
		return &Logit{LR: st.LR, Iters: st.Iters, L2: st.L2, w: st.W, b: st.B, fitted: st.Fitted}, nil
	case "stack":
		var st stackState
		if err := json.Unmarshal(env.Body, &st); err != nil {
			return nil, err
		}
		s := &Stacked{
			ChannelNames: st.Channels, Dims: st.Dims, Trees: st.Trees,
			Folds: st.Folds, Seed: st.Seed, fitted: st.Fitted,
		}
		if len(st.Bases) != len(st.Dims) {
			return nil, fmt.Errorf("ml: stack has %d bases for %d channels", len(st.Bases), len(st.Dims))
		}
		for i, blob := range st.Bases {
			inner, err := Load(blob)
			if err != nil {
				return nil, fmt.Errorf("ml: stack base %d: %w", i, err)
			}
			rf, ok := inner.(*RandomForest)
			if !ok {
				return nil, fmt.Errorf("ml: stack base %d is %T, want forest", i, inner)
			}
			s.bases = append(s.bases, rf)
		}
		if len(st.Combiner) > 0 {
			inner, err := Load(st.Combiner)
			if err != nil {
				return nil, fmt.Errorf("ml: stack combiner: %w", err)
			}
			lg, ok := inner.(*Logit)
			if !ok {
				return nil, fmt.Errorf("ml: stack combiner is %T, want logit", inner)
			}
			s.combiner = lg
		}
		if s.fitted && s.combiner == nil {
			return nil, errors.New("ml: fitted stack without combiner")
		}
		return s, nil
	case "bnb":
		var st bnbState
		if err := json.Unmarshal(env.Body, &st); err != nil {
			return nil, err
		}
		b := &BernoulliNB{thresholds: st.Thresholds, fitted: st.Fitted}
		if len(st.LogPrior) == 2 && len(st.LogProb) == 2 && len(st.LogNot) == 2 {
			copy(b.logPrior[:], st.LogPrior)
			b.logProb[0], b.logProb[1] = st.LogProb[0], st.LogProb[1]
			b.logNot[0], b.logNot[1] = st.LogNot[0], st.LogNot[1]
		} else {
			return nil, errors.New("ml: malformed bnb state")
		}
		return b, nil
	default:
		return nil, fmt.Errorf("ml: unknown model kind %q", env.Kind)
	}
}

type envelope struct {
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`
}

type scaledState struct {
	Scaler StandardScaler  `json:"scaler"`
	Inner  json.RawMessage `json:"inner"`
	Fitted bool            `json:"fitted"`
}

type svmState struct {
	C       float64     `json:"c"`
	Gamma   float64     `json:"gamma"`
	B       float64     `json:"b"`
	Vectors [][]float64 `json:"vectors"`
	Coef    []float64   `json:"coef"`
	Fitted  bool        `json:"fitted"`
}

type rfState struct {
	Trees  []*nodeState `json:"trees"`
	Fitted bool         `json:"fitted"`
}

type treeState struct {
	Root   *nodeState `json:"root"`
	Fitted bool       `json:"fitted"`
}

type nodeState struct {
	Feature   int        `json:"f"`
	Threshold float64    `json:"t"`
	Prob      float64    `json:"p"`
	Left      *nodeState `json:"l,omitempty"`
	Right     *nodeState `json:"r,omitempty"`
}

type mlpState struct {
	W1     [][]float64 `json:"w1"`
	B1     []float64   `json:"b1"`
	W2     []float64   `json:"w2"`
	B2     float64     `json:"b2"`
	Fitted bool        `json:"fitted"`
}

type ldaState struct {
	W      []float64 `json:"w"`
	Bias   float64   `json:"bias"`
	Fitted bool      `json:"fitted"`
}

type logitState struct {
	W      []float64 `json:"w"`
	B      float64   `json:"b"`
	LR     float64   `json:"lr"`
	Iters  int       `json:"iters"`
	L2     float64   `json:"l2"`
	Fitted bool      `json:"fitted"`
}

type stackState struct {
	Channels []string          `json:"channels"`
	Dims     []int             `json:"dims"`
	Trees    int               `json:"trees"`
	Folds    int               `json:"folds"`
	Seed     int64             `json:"seed"`
	Bases    []json.RawMessage `json:"bases"`
	Combiner json.RawMessage   `json:"combiner,omitempty"`
	Fitted   bool              `json:"fitted"`
}

type bnbState struct {
	Thresholds []float64   `json:"thresholds"`
	LogPrior   []float64   `json:"logPrior"`
	LogProb    [][]float64 `json:"logProb"`
	LogNot     [][]float64 `json:"logNot"`
	Fitted     bool        `json:"fitted"`
}

func snapshotNode(n *treeNode) *nodeState {
	if n == nil {
		return nil
	}
	return &nodeState{
		Feature:   n.feature,
		Threshold: n.threshold,
		Prob:      n.prob,
		Left:      snapshotNode(n.left),
		Right:     snapshotNode(n.right),
	}
}

// restoreTree rebuilds a DecisionTree from its serialized root and packs
// the flat scoring arrays so a loaded model takes the same hot path as a
// freshly fitted one.
func restoreTree(s *nodeState, fitted bool) *DecisionTree {
	t := &DecisionTree{root: restoreNode(s), fitted: fitted}
	t.flatten()
	return t
}

func restoreNode(s *nodeState) *treeNode {
	if s == nil {
		return nil
	}
	return &treeNode{
		feature:   s.Feature,
		threshold: s.Threshold,
		prob:      s.Prob,
		left:      restoreNode(s.Left),
		right:     restoreNode(s.Right),
	}
}
