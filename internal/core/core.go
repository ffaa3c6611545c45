// Package core assembles the paper's contribution into a usable library:
// a Detector that extracts VBA macros from Office documents, computes the
// V1–V15 (or J1–J20) static features, and classifies each macro as
// obfuscated or not with one of the five supported classifiers.
//
// The pipeline mirrors §IV: extraction (oletools equivalent) →
// preprocessing (dedup, significance filter) → feature extraction →
// classification, with 10-fold cross-validated training provided by
// package eval.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/deob"
	"repro/internal/extract"
	"repro/internal/features"
	"repro/internal/hostile"
	"repro/internal/ml"
	"repro/internal/telemetry"
)

// FeaturizeAll extracts the set's feature vector for every source across
// workers goroutines (workers <= 0 means GOMAXPROCS). Row i is always the
// vector of sources[i], so the result is deterministic regardless of the
// worker count.
func FeaturizeAll(fs FeatureSet, sources []string, workers int) [][]float64 {
	X := make([][]float64, len(sources))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sources) {
		workers = len(sources)
	}
	if workers <= 1 {
		for i, src := range sources {
			X[i] = fs.Extract(src)
		}
		return X
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(sources) {
					return
				}
				X[i] = fs.Extract(sources[i])
			}
		}()
	}
	wg.Wait()
	return X
}

// Algorithm identifies one of the five classifiers of §IV.D, or the
// channel-stacking ensemble.
type Algorithm string

// Supported algorithms.
const (
	AlgoSVM Algorithm = "svm"
	AlgoRF  Algorithm = "rf"
	AlgoMLP Algorithm = "mlp"
	AlgoLDA Algorithm = "lda"
	AlgoBNB Algorithm = "bnb"
	// AlgoStack is the stacking ensemble: one Random Forest per feature
	// channel plus a logistic combiner. It needs the feature set's channel
	// layout, so it is built by NewDetector rather than NewClassifier.
	AlgoStack Algorithm = "stack"
)

// Algorithms lists all supported algorithms in the paper's order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoSVM, AlgoRF, AlgoMLP, AlgoLDA, AlgoBNB}
}

// NewClassifier constructs a fresh classifier for the algorithm with the
// paper's hyperparameters (SVM C=150 γ=0.03; RF 100 trees; MLP 100 hidden
// units with Adam). SVM, MLP and LDA are wrapped with standardization.
func NewClassifier(algo Algorithm, seed int64) (ml.Classifier, error) {
	switch algo {
	case AlgoSVM:
		return ml.NewScaled(ml.NewSVM(seed)), nil
	case AlgoRF:
		return ml.NewRandomForest(seed), nil
	case AlgoMLP:
		return ml.NewScaled(ml.NewMLP(seed)), nil
	case AlgoLDA:
		return ml.NewScaled(ml.NewLDA()), nil
	case AlgoBNB:
		return ml.NewBernoulliNB(), nil
	case AlgoStack:
		return nil, fmt.Errorf("core: algorithm %q needs a channel layout; construct it through NewDetector", algo)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", algo)
	}
}

// ErrNotTrained is returned when classifying before Train/LoadModel.
var ErrNotTrained = errors.New("core: detector is not trained")

// macroCached is one memoized featurize+classify outcome. The shared
// analysis object is immutable after construction (V/J build fresh slices,
// triage and deobfuscation only read the parse), so one entry can serve
// concurrent scanning goroutines.
type macroCached struct {
	analysis   *MacroAnalysis
	obfuscated bool
	score      float64
	channels   []ChannelScore
}

// MacroCache memoizes per-macro featurization and classification across
// documents, keyed by the SHA-256 of the macro source. Malware corpora are
// dominated by duplicated modules (the paper's Table II dedup step removes
// the bulk of raw samples), so a scan over a realistic corpus re-parses
// the same macro text many times; the cache turns every repeat into a hash
// lookup while keeping verdicts bit-identical — the cached score is the
// score the classifier produced for that exact source.
type MacroCache struct {
	c *cache.Cache[macroCached]
}

// NewMacroCache returns a cache bounded by maxEntries entries and maxBytes
// charged bytes (either ≤ 0 lifts that bound; both ≤ 0 disables the cache,
// returning nil, which every method tolerates).
func NewMacroCache(maxEntries int, maxBytes int64) *MacroCache {
	c := cache.New[macroCached](maxEntries, maxBytes)
	if c == nil {
		return nil
	}
	return &MacroCache{c: c}
}

// Stats reports the cache's hit/miss/eviction counters and current size.
func (m *MacroCache) Stats() cache.Stats {
	if m == nil {
		return cache.Stats{}
	}
	return m.c.Stats()
}

func (m *MacroCache) lookup(k cache.Key) (macroCached, bool) {
	if m == nil {
		return macroCached{}, false
	}
	return m.c.Get(k)
}

// macroCost approximates an entry's memory footprint: the retained source
// string plus the parse (tokens, procedures) it anchors, which empirically
// runs a small multiple of the source length.
func macroCost(src string) int64 { return 4*int64(len(src)) + 512 }

func (m *MacroCache) store(k cache.Key, src string, e macroCached) {
	if m == nil {
		return
	}
	m.c.Put(k, e, macroCost(src))
}

// Detector is the end-to-end obfuscation detector.
type Detector struct {
	featureSet FeatureSet
	algo       Algorithm
	clf        ml.Classifier
	trained    bool
	workers    int
	limits     hostile.Limits
	macros     *MacroCache
	// cacheSalt is the feature set's cache identity (FeatureSet.CacheID),
	// precomputed so hot-path cache keys don't rebuild it per macro. Two
	// detectors over different channel layouts never share cache entries.
	cacheSalt string

	// baselines are the per-channel train-time score distributions
	// persisted with the model — the reference a production drift monitor
	// compares live score distributions against. Nil for models saved
	// before baselines existed.
	baselines []ChannelBaseline

	// modelRaw is the JSON classifier blob this detector was loaded from,
	// kept so SaveModel writes back exactly the classifier it read.
	modelRaw json.RawMessage

	// modelSHA is the hex SHA-256 of the serialized model image this
	// detector was loaded from — the fleet-wide model identity a gateway
	// compares across backends before routing. Computed at load time;
	// detectors trained in-process derive it lazily from SaveModel.
	modelSHA   string
	modelSHAMu sync.Mutex
}

// ModelSHA returns the hex SHA-256 of the detector's serialized model —
// for a detector restored with LoadModel/LoadModelFile, the hash of the
// exact bytes it was loaded from (container or plain JSON). A detector
// trained in-process hashes its SaveModel serialization on first call and
// memoizes the result. Empty for an untrained detector.
func (d *Detector) ModelSHA() string {
	d.modelSHAMu.Lock()
	defer d.modelSHAMu.Unlock()
	if d.modelSHA == "" && d.trained {
		if blob, err := d.SaveModel(); err == nil {
			sum := sha256.Sum256(blob)
			d.modelSHA = hex.EncodeToString(sum[:])
		}
	}
	return d.modelSHA
}

// SetMacroCache attaches a macro-level verdict cache consulted by
// ScanFileCtx before featurizing each significant macro. A nil cache (the
// default) disables memoization. The cache may be shared across detectors
// only if they use the same feature set, algorithm and trained model;
// after retraining or reloading a model, attach a fresh cache.
func (d *Detector) SetMacroCache(c *MacroCache) { d.macros = c }

// MacroCache returns the attached macro cache (nil when disabled).
func (d *Detector) MacroCache() *MacroCache { return d.macros }

// SetLimits configures the per-document resource budget applied by
// ScanFile/ScanFileCtx. Zero fields take the hostile package defaults.
func (d *Detector) SetLimits(l hostile.Limits) { d.limits = l }

// Limits reports the configured resource limits (normalized).
func (d *Detector) Limits() hostile.Limits { return d.limits.Normalize() }

// SetWorkers bounds the detector's training-time concurrency: featurization
// fans out across n goroutines and a Random Forest classifier trains n
// trees at a time (n <= 0 restores the GOMAXPROCS default). Results are
// deterministic for a fixed seed regardless of n.
func (d *Detector) SetWorkers(n int) {
	d.workers = n
	setClassifierWorkers(d.clf, n)
}

// Workers reports the configured concurrency bound (0 = GOMAXPROCS).
func (d *Detector) Workers() int { return d.workers }

func setClassifierWorkers(c ml.Classifier, n int) {
	switch v := c.(type) {
	case *ml.RandomForest:
		v.Workers = n
	case *ml.Stacked:
		v.Workers = n
	case *ml.Scaled:
		setClassifierWorkers(v.Inner, n)
	}
}

// NewDetector creates an untrained detector. AlgoStack builds the stacking
// ensemble from the feature set's channel layout (one forest per channel);
// every other algorithm sees the set's concatenated vector as a whole.
func NewDetector(algo Algorithm, fs FeatureSet, seed int64) (*Detector, error) {
	if !fs.valid() {
		return nil, fmt.Errorf("core: unknown feature set %d", int(fs))
	}
	var clf ml.Classifier
	if algo == AlgoStack {
		chans := fs.Channels()
		names := make([]string, len(chans))
		dims := make([]int, len(chans))
		for i, c := range chans {
			names[i] = c.Name
			dims[i] = c.Dim()
		}
		clf = ml.NewStacked(names, dims, seed)
	} else {
		var err error
		clf, err = NewClassifier(algo, seed)
		if err != nil {
			return nil, err
		}
	}
	return &Detector{featureSet: fs, algo: algo, clf: clf, cacheSalt: fs.CacheID()}, nil
}

// FeatureSetID returns the feature set's cache identity string — the salt
// folded into every macro- and document-level cache key, so entries
// written under one channel layout can never satisfy lookups under
// another.
func (d *Detector) FeatureSetID() string { return d.cacheSalt }

// FeatureSet reports the detector's feature set.
func (d *Detector) FeatureSet() FeatureSet { return d.featureSet }

// Algorithm reports the detector's classifier algorithm.
func (d *Detector) Algorithm() Algorithm { return d.algo }

// Train fits the detector on macro sources with obfuscation labels
// (1 = obfuscated). Featurization fans out across the configured worker
// count (SetWorkers; default GOMAXPROCS); the fitted model is identical
// for a fixed seed regardless of the worker count.
func (d *Detector) Train(sources []string, labels []int) error {
	if len(sources) != len(labels) {
		return fmt.Errorf("core: %d sources vs %d labels", len(sources), len(labels))
	}
	X := FeaturizeAll(d.featureSet, sources, d.workers)
	if err := d.clf.Fit(X, labels); err != nil {
		return fmt.Errorf("core: train: %w", err)
	}
	d.modelRaw = nil
	d.trained = true
	d.baselines = d.computeBaselines(X)
	return nil
}

// ChannelBaseline is one channel's train-time score distribution,
// persisted in the model so production can measure drift against it:
// the proportion of training scores landing in each of the
// telemetry.DriftBins equal-width bins over [0,1], plus count and mean.
type ChannelBaseline struct {
	Channel string    `json:"channel"`
	Bins    []float64 `json:"bins"`
	Count   int       `json:"count"`
	Mean    float64   `json:"mean"`
}

// Baselines returns the per-channel train-time score baselines (nil for
// models saved before baselines existed — drift monitors then track the
// channels without a reference distribution).
func (d *Detector) Baselines() []ChannelBaseline { return d.baselines }

// computeBaselines scores the training rows through the freshly fitted
// model and bins the score distribution — overall, plus per channel for
// the stacking ensemble.
func (d *Detector) computeBaselines(X [][]float64) []ChannelBaseline {
	if len(X) == 0 {
		return nil
	}
	_, scores := ml.PredictBatch(d.clf, X)
	out := []ChannelBaseline{binBaseline("overall", scores)}
	if st, ok := d.clf.(*ml.Stacked); ok {
		cols := st.ChannelScoreBatch(X)
		col := make([]float64, len(cols))
		for c := range st.ChannelNames {
			for k := range cols {
				col[k] = cols[k][c]
			}
			out = append(out, binBaseline(st.ChannelNames[c], col))
		}
	}
	return out
}

func binBaseline(name string, scores []float64) ChannelBaseline {
	var sum float64
	for _, s := range scores {
		sum += s
	}
	mean := 0.0
	if len(scores) > 0 {
		mean = sum / float64(len(scores))
	}
	return ChannelBaseline{
		Channel: name,
		Bins:    telemetry.ScoreBins(scores),
		Count:   len(scores),
		Mean:    mean,
	}
}

// PredictBatch scores pre-computed feature rows through the detector's
// classifier (one batched call, bit-identical to per-row scoring).
func (d *Detector) PredictBatch(X [][]float64) ([]int, []float64) {
	return ml.PredictBatch(d.clf, X)
}

// classifyPending scores the batch and reports per-channel contributions.
// For the stacking ensemble the per-channel forest pass IS the verdict
// computation (the combiner fold costs nothing), so contributions come
// for free. Every other model reports one "overall" channel mirroring the
// final score.
func (d *Detector) classifyPending(X [][]float64) (labels []int, scores []float64, chans [][]ChannelScore) {
	if st, ok := d.clf.(*ml.Stacked); ok {
		cols := st.ChannelScoreBatch(X)
		labels = make([]int, len(X))
		scores = make([]float64, len(X))
		for k, row := range cols {
			scores[k] = st.CombineChannels(row)
			if scores[k] >= 0.5 {
				labels[k] = ml.Positive
			} else {
				labels[k] = ml.Negative
			}
		}
		return labels, scores, d.channelRecords(st, cols)
	}
	labels, scores = d.PredictBatch(X)
	chans = make([][]ChannelScore, len(X))
	for k := range X {
		chans[k] = []ChannelScore{{Channel: "overall", Score: scores[k], Weight: 1}}
	}
	return labels, scores, chans
}

// channelRecords shapes the stacked ensemble's per-channel score columns
// into wire-ready ChannelScore rows, attaching the combiner weights.
func (d *Detector) channelRecords(st *ml.Stacked, cols [][]float64) [][]ChannelScore {
	weights, _ := st.CombinerWeights()
	out := make([][]ChannelScore, len(cols))
	for k, row := range cols {
		rec := make([]ChannelScore, len(row))
		for c, s := range row {
			rec[c] = ChannelScore{Channel: st.ChannelNames[c], Score: s}
			if c < len(weights) {
				rec[c].Weight = weights[c]
			}
		}
		out[k] = rec
	}
	return out
}

// MacroAnalysis is the shared single-parse view of one macro: the source
// is lexed and parsed exactly once, and classification (V or J vector),
// triage and deobfuscation all read from that one parse.
type MacroAnalysis struct {
	feat *features.Analysis
}

// Analyze parses src once and returns the shared analysis object.
func Analyze(src string) *MacroAnalysis {
	return &MacroAnalysis{feat: features.Analyze(src)}
}

// Source returns the analyzed macro text.
func (a *MacroAnalysis) Source() string { return a.feat.Source() }

// Features returns the feature vector of the set, computed from the shared
// parse (both V and J come from the same Analyze call).
func (a *MacroAnalysis) Features(fs FeatureSet) []float64 {
	return fs.vectorOf(a.feat)
}

// Triage runs the olevba-style triage (auto-exec entry points, suspicious
// keywords, IOCs — including those only visible after deobfuscation) on
// the shared parse.
func (a *MacroAnalysis) Triage() *analysis.Report {
	return analysis.AnalyzeModule(a.feat.Module())
}

// Deobfuscate constant-folds the macro's split and encoded string
// expressions, reusing the shared parse for the first folding round.
func (a *MacroAnalysis) Deobfuscate() deob.Result {
	return deob.DeobfuscateModule(a.feat.Module())
}

// ChannelScore is one feature channel's contribution to a macro verdict:
// the channel's own forest score and the weight the combiner assigns it.
// Non-stacked models report a single "overall" entry mirroring the final
// score, so the triage surface is uniform across model kinds.
type ChannelScore struct {
	Channel string  `json:"channel"`
	Score   float64 `json:"score"`
	Weight  float64 `json:"weight,omitempty"`
}

// MacroVerdict is the per-macro classification outcome.
type MacroVerdict struct {
	// Module is the VBA module name.
	Module string
	// Obfuscated is the predicted label.
	Obfuscated bool
	// Score is the classifier's decision score (higher = more likely
	// obfuscated; the decision threshold depends on the algorithm).
	Score float64
	// Channels are the per-channel score contributions behind Score (see
	// ChannelScore).
	Channels []ChannelScore
	// Source is the macro text.
	Source string
	// Analysis is the macro's shared single-parse analysis; triage and
	// deobfuscation through it reuse the parse that produced the features.
	Analysis *MacroAnalysis
}

// FileReport is the outcome of scanning one document.
type FileReport struct {
	// Format is the detected container format ("ole" or "ooxml").
	Format string
	// Project is the VBA project name.
	Project string
	// Macros holds one verdict per significant extracted macro.
	Macros []MacroVerdict
	// Skipped counts extracted macros below the significance threshold.
	Skipped int
	// StorageStrings are printable strings recovered from document
	// storage outside the macro code (UserForm captions, document
	// variables) — where hidden-string anti-analysis parks payloads.
	StorageStrings []string
	// Degraded reports that extraction was partial: some streams or
	// modules were lost to corruption or resource limits, and Macros
	// holds only the verdicts for what survived.
	Degraded bool
	// Errors lists the per-stream extraction failures behind Degraded.
	Errors []extract.StreamError
}

// Obfuscated reports whether any macro in the file was classified as
// obfuscated.
func (r *FileReport) Obfuscated() bool {
	for _, m := range r.Macros {
		if m.Obfuscated {
			return true
		}
	}
	return false
}

// VerdictJSON is the wire representation of one macro verdict: the
// classification outcome without the macro source or the parse-heavy
// Analysis object, sized for service responses.
type VerdictJSON struct {
	Module     string  `json:"module"`
	Obfuscated bool    `json:"obfuscated"`
	Score      float64 `json:"score"`
	// Channels are the per-channel score contributions behind Score —
	// the triage view of which feature family drove the verdict.
	Channels []ChannelScore `json:"channels,omitempty"`
	// SourceBytes is the macro length, so callers can tell a trivial stub
	// from a real module without shipping the source over the wire.
	SourceBytes int `json:"source_bytes"`
}

// StreamErrorJSON is the wire representation of one per-stream extraction
// failure inside a degraded report.
type StreamErrorJSON struct {
	Stream string `json:"stream"`
	// Class is the hostile-taxonomy class of the failure ("truncated",
	// "malformed", "bomb", "limit", "cycle", "deadline"), or "" when the
	// error falls outside the taxonomy.
	Class   string `json:"class,omitempty"`
	Message string `json:"message"`
}

// ReportJSON is the wire representation of a FileReport.
type ReportJSON struct {
	Format     string        `json:"format"`
	Project    string        `json:"project,omitempty"`
	Obfuscated bool          `json:"obfuscated"`
	Macros     []VerdictJSON `json:"macros"`
	Skipped    int           `json:"skipped"`
	// StorageStrings counts printable strings recovered from document
	// storage outside macro code (hidden-string anti-analysis payloads).
	StorageStrings int `json:"storage_strings"`
	// Degraded marks a partial extraction: verdicts cover only the
	// macros that survived; Errors explains what was lost.
	Degraded bool              `json:"degraded,omitempty"`
	Errors   []StreamErrorJSON `json:"errors,omitempty"`
	// ContainerPath is the provenance of a document discovered inside a
	// container by the recursive walker: the "!"-joined chain of archive
	// entry names leading to it ("attachments.zip!invoice.docm"). Empty
	// for the submitted document itself. Set by container-walking callers,
	// not by FileReport.JSON.
	ContainerPath string `json:"container_path,omitempty"`
}

// JSON converts the report to its wire representation.
func (r *FileReport) JSON() *ReportJSON {
	out := &ReportJSON{
		Format:         r.Format,
		Project:        r.Project,
		Obfuscated:     r.Obfuscated(),
		Macros:         make([]VerdictJSON, len(r.Macros)),
		Skipped:        r.Skipped,
		StorageStrings: len(r.StorageStrings),
		Degraded:       r.Degraded,
	}
	for i, m := range r.Macros {
		out.Macros[i] = VerdictJSON{
			Module:      m.Module,
			Obfuscated:  m.Obfuscated,
			Score:       m.Score,
			Channels:    m.Channels,
			SourceBytes: len(m.Source),
		}
	}
	for _, e := range r.Errors {
		out.Errors = append(out.Errors, StreamErrorJSON{
			Stream:  e.Stream,
			Class:   hostile.Classify(e.Err),
			Message: e.Err.Error(),
		})
	}
	return out
}

// ClassifySource classifies a single macro source.
func (d *Detector) ClassifySource(src string) (MacroVerdict, error) {
	return d.ClassifyAnalysis(Analyze(src))
}

// ClassifyAnalysis classifies an already-analyzed macro, reusing its
// single parse for the feature vector.
func (d *Detector) ClassifyAnalysis(a *MacroAnalysis) (MacroVerdict, error) {
	if !d.trained {
		return MacroVerdict{}, ErrNotTrained
	}
	x := a.Features(d.featureSet)
	labels, scores, chans := d.classifyPending([][]float64{x})
	return MacroVerdict{
		Obfuscated: labels[0] == ml.Positive,
		Score:      scores[0],
		Channels:   chans[0],
		Source:     a.Source(),
		Analysis:   a,
	}, nil
}

// Timings splits one ScanFile call into its pipeline stages (§IV):
// container extraction, feature computation (the single parse), and
// classifier inference.
type Timings struct {
	ExtractNS   int64
	FeaturizeNS int64
	ClassifyNS  int64
}

// Add accumulates another measurement into t.
func (t *Timings) Add(o Timings) {
	t.ExtractNS += o.ExtractNS
	t.FeaturizeNS += o.FeaturizeNS
	t.ClassifyNS += o.ClassifyNS
}

// ScanFile extracts all macros from an Office document (.doc, .xls,
// .docm, .xlsm or a raw vbaProject.bin) and classifies each significant
// one. Returns extract.ErrNoMacros for macro-free documents.
func (d *Detector) ScanFile(data []byte) (*FileReport, error) {
	report, _, err := d.ScanFileTimed(data)
	return report, err
}

// ScanFileTimed is ScanFile with per-stage wall-clock attribution, the
// instrumentation the batch scan engine aggregates into throughput stats.
func (d *Detector) ScanFileTimed(data []byte) (*FileReport, Timings, error) {
	return d.ScanFileCtx(context.Background(), data)
}

// ScanFileCtx is ScanFileTimed under a context: the context deadline (if
// any) becomes the document's processing deadline, checked inside the
// parsing loops so a hostile document cannot hold the scanning goroutine
// past it. The detector's configured Limits (SetLimits) bound memory and
// work. A partially corrupted document yields err == nil with
// FileReport.Degraded set and the surviving macros classified; a document
// that exhausts its budget before producing anything yields a typed error
// classifiable with hostile.Classify / hostile.ExhaustsBudget.
//
// When the context carries a telemetry.Tracer (ContextWithTracer), every
// pipeline stage records a span under its root: extraction with its
// container sub-stages, then per-macro featurize/classify pairs.
func (d *Detector) ScanFileCtx(ctx context.Context, data []byte) (*FileReport, Timings, error) {
	var tm Timings
	if !d.trained {
		return nil, tm, ErrNotTrained
	}
	root := telemetry.TracerFrom(ctx).Root()
	bud := hostile.NewBudget(d.limits.Normalize())
	if dl, ok := ctx.Deadline(); ok {
		bud = bud.WithDeadline(dl)
	}
	start := time.Now()
	esp := root.Child("extract")
	esp.SetBytes(int64(len(data)))
	res, err := extract.FileBudgetTraced(data, bud, esp)
	tm.ExtractNS = time.Since(start).Nanoseconds()
	if err != nil {
		esp.SetError(err, hostile.Classify(err))
		esp.End()
		return nil, tm, err
	}
	esp.End()
	report := &FileReport{
		Format:         res.Format.String(),
		Project:        res.Project,
		Macros:         make([]MacroVerdict, 0, len(res.Macros)),
		StorageStrings: res.StorageStrings,
		Degraded:       res.Degraded,
		Errors:         res.Errors,
	}
	// Phase 1 — featurize. Each significant macro is looked up in the
	// macro cache (a hit reuses the memoized parse and verdict); misses
	// are analyzed once and queued for one batched classification pass.
	var (
		pendIdx  []int       // index into report.Macros
		pendVec  [][]float64 // feature row for the batch
		pendKey  []cache.Key // content hash, reused for the put
		pendSpan []*telemetry.Span
	)
	for _, m := range res.Macros {
		if len(extract.NormalizeSource(m.Source)) < extract.MinSignificantBytes {
			report.Skipped++
			continue
		}
		msp := root.Child("macro:" + m.Module)
		msp.SetBytes(int64(len(m.Source)))
		var key cache.Key
		if d.macros != nil {
			key = cache.KeyOfSaltedString(d.cacheSalt, m.Source)
			if ent, ok := d.macros.lookup(key); ok {
				msp.Annotate("cache", "hit")
				if ent.obfuscated {
					msp.Annotate("verdict", "obfuscated")
				}
				msp.End()
				report.Macros = append(report.Macros, MacroVerdict{
					Module:     m.Module,
					Obfuscated: ent.obfuscated,
					Score:      ent.score,
					Channels:   ent.channels,
					Source:     m.Source,
					Analysis:   ent.analysis,
				})
				continue
			}
		}
		t1 := time.Now()
		fsp := msp.Child("featurize")
		a := Analyze(m.Source)
		x := a.Features(d.featureSet)
		fsp.End()
		tm.FeaturizeNS += time.Since(t1).Nanoseconds()
		report.Macros = append(report.Macros, MacroVerdict{
			Module:   m.Module,
			Source:   m.Source,
			Analysis: a,
		})
		pendIdx = append(pendIdx, len(report.Macros)-1)
		pendVec = append(pendVec, x)
		pendKey = append(pendKey, key)
		pendSpan = append(pendSpan, msp)
	}
	// Phase 2 — classify every miss in one batch (tree-based models score
	// all rows per tree walk; scaled models transform each row once).
	if len(pendIdx) > 0 {
		t2 := time.Now()
		labels, scores, chans := d.classifyPending(pendVec)
		for k, i := range pendIdx {
			csp := pendSpan[k].Child("classify")
			csp.End()
			v := &report.Macros[i]
			v.Obfuscated = labels[k] == ml.Positive
			v.Score = scores[k]
			v.Channels = chans[k]
			if v.Obfuscated {
				pendSpan[k].Annotate("verdict", "obfuscated")
			}
			pendSpan[k].End()
			if d.macros != nil {
				d.macros.store(pendKey[k], v.Source, macroCached{
					analysis:   v.Analysis,
					obfuscated: v.Obfuscated,
					score:      v.Score,
					channels:   v.Channels,
				})
			}
		}
		tm.ClassifyNS += time.Since(t2).Nanoseconds()
	}
	if report.Skipped > 0 {
		root.Annotate("skipped", fmt.Sprintf("%d", report.Skipped))
	}
	if report.Degraded {
		root.Annotate("degraded", "true")
	}
	return report, tm, nil
}

// modelHeader is the persisted model envelope. Marshaling it with
// encoding/json (rather than assembling the JSON by hand) guarantees the
// feature-set and algorithm strings are escaped correctly. Channels
// records the exact channel layout (name, version, dimension) the model
// was trained on; the loader validates it against the binary's feature
// registry. Headers written before the registry existed carry no channels
// field and are accepted only for the legacy V/J sets, whose extractors
// are frozen at version 1.
type modelHeader struct {
	FeatureSet string         `json:"featureSet"`
	Algorithm  string         `json:"algorithm"`
	Channels   []modelChannel `json:"channels,omitempty"`
	// Baselines are the train-time per-channel score distributions for
	// production drift monitoring. Optional: models saved before the
	// field existed load without them (drift gauges then report 0).
	Baselines []ChannelBaseline `json:"baselines,omitempty"`
	Model     json.RawMessage   `json:"model"`
}

// modelChannel is one persisted channel record.
type modelChannel struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	Dim     int    `json:"dim"`
}

// SaveModel serializes the trained detector (feature set + channel layout
// + classifier).
func (d *Detector) SaveModel() ([]byte, error) {
	if !d.trained {
		return nil, ErrNotTrained
	}
	blob := d.modelRaw
	if blob == nil {
		var err error
		blob, err = ml.Save(d.clf)
		if err != nil {
			return nil, err
		}
	}
	chans := d.featureSet.Channels()
	rec := make([]modelChannel, len(chans))
	for i, c := range chans {
		rec[i] = modelChannel{Name: c.Name, Version: c.Version, Dim: c.Dim()}
	}
	return json.Marshal(modelHeader{
		FeatureSet: d.featureSet.String(),
		Algorithm:  string(d.algo),
		Channels:   rec,
		Baselines:  d.baselines,
		Model:      blob,
	})
}

// Model container: older releases could also write the JSON model inside
// a binary VBADMDL1 container that carried a compiled-forest section after
// it. The preamble (magic, container version, reserved word, JSON length)
// is frozen across container versions, so every such container still
// loads: the detector is built from its JSON head and the section is
// skipped unread.
const (
	modelMagic            = "VBADMDL1"
	modelContainerVersion = 1
	modelPreambleSize     = 24
)

func alignModel8(n int) int { return (n + 7) &^ 7 }

// splitModelContainer returns the JSON model inside a model blob. Plain
// JSON (no container magic) passes through unchanged. For a container the
// little-endian length words must fit the blob — the JSON length for any
// version, and the section length for a version-1 container — or the
// container is reported truncated.
func splitModelContainer(data []byte) ([]byte, error) {
	if len(data) < modelPreambleSize || string(data[0:8]) != modelMagic {
		return data, nil
	}
	le := binary.LittleEndian
	version := le.Uint32(data[8:])
	jsonLen := le.Uint64(data[16:])
	if jsonLen > uint64(len(data)-modelPreambleSize) {
		return nil, errors.New("core: model container truncated")
	}
	jsonBlob := data[modelPreambleSize : modelPreambleSize+int(jsonLen)]
	sectionOff := alignModel8(modelPreambleSize + int(jsonLen))
	if version != modelContainerVersion || sectionOff == len(data) {
		return jsonBlob, nil
	}
	if sectionOff+8 > len(data) ||
		le.Uint64(data[sectionOff:]) > uint64(len(data)-sectionOff-8) {
		return nil, errors.New("core: model container truncated")
	}
	return jsonBlob, nil
}

// LoadModel restores a detector saved with SaveModel, or from a model
// container (see splitModelContainer).
func LoadModel(data []byte) (*Detector, error) {
	jsonBlob, err := splitModelContainer(data)
	if err != nil {
		return nil, err
	}
	var head modelHeader
	if err := json.Unmarshal(jsonBlob, &head); err != nil {
		return nil, fmt.Errorf("core: bad model: %w", err)
	}
	clf, err := ml.Load(head.Model)
	if err != nil {
		return nil, fmt.Errorf("core: bad model: %w", err)
	}
	fs, err := ParseFeatureSet(head.FeatureSet)
	if err != nil {
		return nil, fmt.Errorf("core: bad model: %w", err)
	}
	if err := validateModelChannels(fs, head.Channels); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	return &Detector{
		featureSet: fs,
		algo:       Algorithm(head.Algorithm),
		clf:        clf,
		trained:    true,
		modelRaw:   append(json.RawMessage(nil), head.Model...),
		baselines:  head.Baselines,
		cacheSalt:  fs.CacheID(),
		modelSHA:   hex.EncodeToString(sum[:]),
	}, nil
}

// validateModelChannels checks the model's recorded channel layout against
// the binary's feature registry: every recorded channel must exist with
// the same version and dimension, and the record must cover the feature
// set's layout exactly. Any mismatch means the model's vectors and this
// binary's extractors disagree, so the load fails closed with a
// FeatureSkewError. A header with no channel record (written before the
// registry existed) is accepted only for the legacy V/J sets — their
// extractors are frozen at version 1, so those models stay bit-compatible.
func validateModelChannels(fs FeatureSet, rec []modelChannel) error {
	want := fs.Channels()
	if len(rec) == 0 {
		if fs == FeatureSetV || fs == FeatureSetJ {
			return nil
		}
		return &FeatureSkewError{
			FeatureSet: fs.String(),
			Reason:     "model has no channel record; only legacy V/J models may omit it",
		}
	}
	if len(rec) != len(want) {
		return &FeatureSkewError{
			FeatureSet: fs.String(),
			Reason: fmt.Sprintf("model records %d channels, feature set %q has %d",
				len(rec), fs.String(), len(want)),
		}
	}
	for i, r := range rec {
		w := want[i]
		if r.Name != w.Name {
			return &FeatureSkewError{
				FeatureSet: fs.String(), Channel: r.Name,
				Reason: fmt.Sprintf("channel %d is %q, feature set expects %q", i, r.Name, w.Name),
			}
		}
		if r.Version != w.Version {
			return &FeatureSkewError{
				FeatureSet: fs.String(), Channel: r.Name,
				Reason: fmt.Sprintf("model trained on %s@%d, binary provides %s@%d",
					r.Name, r.Version, w.Name, w.Version),
			}
		}
		if r.Dim != w.Dim() {
			return &FeatureSkewError{
				FeatureSet: fs.String(), Channel: r.Name,
				Reason: fmt.Sprintf("channel %s has %d dims in the model, %d in this binary",
					r.Name, r.Dim, w.Dim()),
			}
		}
	}
	return nil
}

// LoadModelFile reads a model file and restores the detector it holds.
func LoadModelFile(path string) (*Detector, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read model: %w", err)
	}
	return LoadModel(data)
}
