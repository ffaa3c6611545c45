// Package vbadetect is the public facade of the obfuscated-VBA-macro
// detection library (a reproduction of "Obfuscated VBA Macro Detection
// Using Machine Learning", DSN 2018).
//
// The library detects *obfuscation*, not maliciousness — though the two
// correlate strongly in the wild (the paper measured 98.4% of malicious
// macros obfuscated versus 1.7% of benign ones).
//
// Quick start:
//
//	det, err := vbadetect.NewDetector(vbadetect.AlgoMLP, vbadetect.FeatureSetV, 1)
//	...
//	err = det.Train(sources, labels) // labels: 1 = obfuscated
//	report, err := det.ScanFile(docBytes) // .doc/.xls/.docm/.xlsm
//
// See examples/ for runnable programs and internal/core for the pipeline.
package vbadetect

import (
	"context"
	"io"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/deob"
	"repro/internal/extract"
	"repro/internal/fleet"
	"repro/internal/hostile"
	"repro/internal/queue"
	"repro/internal/scan"
	"repro/internal/telemetry"
	"repro/internal/walker"
)

// Re-exported core types: the facade keeps downstream imports to a single
// package.
type (
	// Detector is the end-to-end obfuscation detector (extract →
	// featurize → classify).
	Detector = core.Detector
	// FeatureSet selects the V (proposed) or J (comparison) features.
	FeatureSet = core.FeatureSet
	// Algorithm names one of the five classifiers.
	Algorithm = core.Algorithm
	// MacroVerdict is a per-macro classification outcome.
	MacroVerdict = core.MacroVerdict
	// FileReport is the outcome of scanning one document.
	FileReport = core.FileReport
)

// Feature sets. V and J are the paper's; entropy, api and stack are the
// registry channels and their combined layout (see README "Feature
// channels").
const (
	FeatureSetV       = core.FeatureSetV
	FeatureSetJ       = core.FeatureSetJ
	FeatureSetEntropy = core.FeatureSetEntropy
	FeatureSetAPI     = core.FeatureSetAPI
	FeatureSetStack   = core.FeatureSetStack
)

// Algorithms (§IV.D of the paper), plus the stacked ensemble (per-channel
// forests under a logistic combiner; requires a multi-channel feature set
// and NewDetector).
const (
	AlgoSVM   = core.AlgoSVM
	AlgoRF    = core.AlgoRF
	AlgoMLP   = core.AlgoMLP
	AlgoLDA   = core.AlgoLDA
	AlgoBNB   = core.AlgoBNB
	AlgoStack = core.AlgoStack
)

// ParseFeatureSet resolves a feature-set name ("V", "J", "entropy", "api",
// "stack"; case-insensitive) to its FeatureSet.
func ParseFeatureSet(s string) (FeatureSet, error) {
	return core.ParseFeatureSet(s)
}

// FeatureSets lists every defined feature set.
func FeatureSets() []FeatureSet { return core.FeatureSets() }

// Feature-set version skew: a persisted model records the name, version
// and dimension of every feature channel it was trained on, and loading
// fails closed when the running binary's channels disagree.
type FeatureSkewError = core.FeatureSkewError

// ErrFeatureSkew is the sentinel matched by errors.Is when a model's
// recorded feature channels do not match this binary's registry.
var ErrFeatureSkew = core.ErrFeatureSkew

// ErrNoMacros is returned by ScanFile for macro-free documents.
var ErrNoMacros = extract.ErrNoMacros

// NewDetector creates an untrained detector with the paper's
// hyperparameters for the chosen algorithm.
func NewDetector(algo Algorithm, fs FeatureSet, seed int64) (*Detector, error) {
	return core.NewDetector(algo, fs, seed)
}

// LoadModel restores a detector persisted with Detector.SaveModel. Model
// containers (VBADMDL1) written by older releases load from their JSON
// head.
func LoadModel(data []byte) (*Detector, error) {
	return core.LoadModel(data)
}

// LoadModelFile reads a model file and restores the detector it holds
// (see LoadModel).
func LoadModelFile(path string) (*Detector, error) {
	return core.LoadModelFile(path)
}

// ExtractMacros extracts raw macro sources from an Office document
// (.doc/.xls/.docm/.xlsm or a bare vbaProject.bin) without classification.
func ExtractMacros(data []byte) ([]string, error) {
	res, err := extract.File(data)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(res.Macros))
	for i, m := range res.Macros {
		out[i] = m.Source
	}
	return out, nil
}

// Batch scanning — a bounded worker pool over many documents.

type (
	// Engine is a concurrent batch scanner: extract → featurize →
	// classify across a worker pool, with per-stage timings.
	Engine = scan.Engine
	// Document is one input to the engine: a name plus raw file bytes.
	Document = scan.Document
	// Result pairs a document with its report (or error).
	Result = scan.Result
	// Stats aggregates throughput and per-stage wall-clock time.
	Stats = scan.Stats
)

// NewEngine wraps a trained detector in a batch scanner with the given
// worker count (<= 0 means GOMAXPROCS). For a fixed model the results are
// identical for any worker count; only throughput changes.
func NewEngine(det *Detector, workers int) *Engine {
	return scan.New(det, workers)
}

// Service-facing types: the wire representations and per-stage timing
// breakdown used by the vbadetectd HTTP daemon, re-exported so clients of
// the library can share them.
type (
	// Timings splits one scan into extract / featurize / classify
	// wall-clock nanoseconds.
	Timings = core.Timings
	// ReportJSON is the wire representation of a FileReport.
	ReportJSON = core.ReportJSON
	// VerdictJSON is the wire representation of one macro verdict.
	VerdictJSON = core.VerdictJSON
	// PanicError wraps a panic recovered during a scan of one document.
	PanicError = scan.PanicError
)

// ScanOne scans a single document with panic isolation and per-stage
// timings: a parser bug tripped by a malformed document is returned as a
// *PanicError instead of crashing the process.
func ScanOne(det *Detector, data []byte) (*FileReport, Timings, error) {
	return scan.ScanOne(det, data)
}

// ScanOneCtx is ScanOne with a context: a context deadline becomes the
// document's wall-clock budget, surfacing as a typed deadline error
// instead of an unbounded parse.
func ScanOneCtx(ctx context.Context, det *Detector, data []byte) (*FileReport, Timings, error) {
	return scan.ScanOneCtx(ctx, det, data)
}

// Content-addressed verdict caching — duplicate documents and macros are
// common in mail-gateway traffic, and detection is a pure function of the
// bytes, so repeated inputs can be answered from a bounded LRU without
// re-running the pipeline (see internal/cache).

type (
	// MacroCache memoizes per-macro featurization and classification,
	// keyed by the SHA-256 of the normalized macro source. Attach with
	// Detector.SetMacroCache.
	MacroCache = core.MacroCache
	// DocCache memoizes whole-document reports, keyed by the SHA-256 of
	// the file bytes. Degraded reports are never cached. Attach with
	// Engine.SetDocCache.
	DocCache = scan.DocCache
	// CacheStats is a point-in-time snapshot of one cache's counters.
	CacheStats = cache.Stats
)

// NewMacroCache builds a macro-level verdict cache bounded by entry count
// and charged bytes (<= 0 disables the respective bound; both <= 0 returns
// nil, which every consumer treats as caching disabled).
func NewMacroCache(maxEntries int, maxBytes int64) *MacroCache {
	return core.NewMacroCache(maxEntries, maxBytes)
}

// NewDocCache builds a document-level report cache with the same bounding
// rules as NewMacroCache.
func NewDocCache(maxEntries int, maxBytes int64) *DocCache {
	return scan.NewDocCache(maxEntries, maxBytes)
}

// Hostile-input hardening — resource budgets, the error taxonomy and the
// scan engine's retry/quarantine policy (see internal/hostile).

type (
	// Limits is the per-document resource budget configuration; the zero
	// value uses production defaults. Apply with Detector.SetLimits.
	Limits = hostile.Limits
	// Policy tunes the batch engine's retry/quarantine behavior; apply
	// with Engine.SetPolicy.
	Policy = scan.Policy
	// StreamError records a per-stream extraction failure inside a
	// degraded FileReport.
	StreamError = extract.StreamError
)

// Taxonomy sentinels for errors.Is on scan/extract failures.
var (
	// ErrTruncated reports input that ends before a structure it promised.
	ErrTruncated = hostile.ErrTruncated
	// ErrBomb reports decompressed output exceeding the budget.
	ErrBomb = hostile.ErrBomb
	// ErrLimitExceeded reports any exhausted resource budget.
	ErrLimitExceeded = hostile.ErrLimitExceeded
	// ErrMalformed reports structurally invalid input.
	ErrMalformed = hostile.ErrMalformed
	// ErrCycle reports cyclic structural references (FAT loops).
	ErrCycle = hostile.ErrCycle
)

// ClassifyError buckets a scan error into its taxonomy class ("bomb",
// "deadline", "limit", "cycle", "truncated", "malformed"; "" otherwise).
func ClassifyError(err error) string { return hostile.Classify(err) }

// IsQuarantineable reports whether err represents exhausted resource
// budgets — the class of documents worth setting aside rather than
// retrying.
func IsQuarantineable(err error) bool { return hostile.ExhaustsBudget(err) }

// Observability — per-document tracing, a metrics registry with JSON and
// Prometheus rendering, and the sampled verdict audit log (see
// internal/telemetry).

type (
	// Tracer records one document's span tree; attach to a scan with
	// WithTracer or Engine.SetTraceSink.
	Tracer = telemetry.Tracer
	// Trace is a finished, exportable span tree.
	Trace = telemetry.Trace
	// Span is one timed pipeline stage inside a trace.
	Span = telemetry.Span
	// TraceWriter serializes finished traces as JSONL, safe for
	// concurrent scan workers.
	TraceWriter = telemetry.TraceWriter
	// Registry is a metrics registry (counters, gauges, histograms) that
	// renders as JSON and Prometheus text exposition.
	Registry = telemetry.Registry
	// AuditEvent is one verdict audit record: feature vectors, scores,
	// triage flags and the document content hash.
	AuditEvent = telemetry.AuditEvent
	// AuditLogger writes sampled, rate-capped audit events as JSONL.
	AuditLogger = telemetry.AuditLogger
	// AuditConfig tunes audit sampling and caps.
	AuditConfig = telemetry.AuditConfig
)

// Fleet observability — W3C trace-context propagation, model-drift
// monitoring against train-time score baselines, and rolling SLO
// burn-rate tracking (see internal/telemetry and the README's
// Observability section).

type (
	// TraceContext is a W3C trace-context identity (trace ID, span ID,
	// flags) carried on the `traceparent` header and journaled with async
	// work so spans stitch across processes and crashes.
	TraceContext = telemetry.TraceContext
	// DriftMonitor compares rolling production score histograms against
	// train-time baselines per feature channel, reporting PSI.
	DriftMonitor = telemetry.DriftMonitor
	// SLOTracker maintains rolling availability/latency SLIs and
	// burn-rate gauges over 5m and 1h windows.
	SLOTracker = telemetry.SLOTracker
	// SLOReading is one window's point-in-time SLI snapshot.
	SLOReading = telemetry.SLOReading
	// ChannelBaseline is one feature channel's train-time score
	// histogram, persisted inside the model container.
	ChannelBaseline = core.ChannelBaseline
	// ChannelScore is one feature channel's contribution to a macro
	// verdict.
	ChannelScore = core.ChannelScore
)

// ParseTraceparent parses a W3C `traceparent` header value.
func ParseTraceparent(header string) (TraceContext, error) {
	return telemetry.ParseTraceparent(header)
}

// NewTraceContext mints a fresh sampled trace identity.
func NewTraceContext() TraceContext { return telemetry.NewTraceContext() }

// NewDriftMonitor builds a drift monitor with the given rolling window
// per channel (<= 0 means 4096 observations). Seed it with SetBaseline
// from a trained detector's Baselines, then feed production scores to
// Observe.
func NewDriftMonitor(window int) *DriftMonitor {
	return telemetry.NewDriftMonitor(window)
}

// NewSLOTracker builds an SLO tracker with the given availability and
// latency objectives (<= 0 pick the 0.999 / 0.99 defaults) and latency
// threshold (<= 0 means 500ms).
func NewSLOTracker(availTarget, latencyTarget float64, latencyThreshold time.Duration) *SLOTracker {
	return telemetry.NewSLOTracker(availTarget, latencyTarget, latencyThreshold)
}

// NewTracer starts a trace for one document; call Finish before export.
func NewTracer(doc string) *Tracer { return telemetry.NewTracer(doc) }

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// NewAuditLogger wraps w in a sampled, rate-capped JSONL audit sink.
func NewAuditLogger(w io.Writer, cfg AuditConfig) *AuditLogger {
	return telemetry.NewAuditLogger(w, cfg)
}

// WithTracer returns a context that routes per-stage spans from
// ScanOneCtx (and everything below it) into tr.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return telemetry.ContextWithTracer(ctx, tr)
}

// Container walking and durable intake — how documents actually arrive
// (a .docm inside a .zip attachment, an OLE object nested deeper) and the
// crash-safe queue the vbadetectd async intake path drains (see
// internal/walker and internal/queue).

type (
	// WalkTree is the outcome of recursively opening one submitted file:
	// every scannable document found with provenance, plus per-child
	// issues for a degraded (partial) walk.
	WalkTree = walker.Tree
	// WalkDoc is one scannable document discovered in a container tree.
	WalkDoc = walker.Doc
	// WalkIssue is one per-child failure that degraded a walk.
	WalkIssue = walker.Issue
	// TreeDoc pairs one discovered document with its report (or error).
	TreeDoc = scan.TreeDoc
	// WorkQueue is a persistent journal-backed work queue with
	// at-least-once delivery, visibility timeouts, bounded redelivery
	// and a dead-letter state. Accepted work survives SIGKILL.
	WorkQueue = queue.Queue
	// QueueOptions tunes a WorkQueue; the zero value is usable.
	QueueOptions = queue.Options
	// QueueDelivery is one received job: call exactly one of Ack, Fail
	// or Kill.
	QueueDelivery = queue.Delivery
	// QueueStats is a point-in-time queue summary plus lifetime counters.
	QueueStats = queue.Stats
	// DeadJob is a dead-lettered job awaiting operator redrive.
	DeadJob = queue.DeadJob
)

// Walker sentinels for errors.Is on Walk/ScanTree failures.
var (
	// ErrNotContainer reports a root input that is neither a ZIP archive
	// nor an OLE compound file (matches ErrMalformed).
	ErrNotContainer = walker.ErrNotContainer
	// ErrNoDocuments reports a container with nothing scannable inside.
	ErrNoDocuments = walker.ErrNoDocuments
)

// WalkContainer recursively opens data as a container tree (zip → docm →
// embedded OLE / nested zip) under the given resource limits, returning
// every scannable document with its "!"-joined container path. Archive
// bombs and cyclic references exhaust the budget with typed errors.
func WalkContainer(data []byte, lim Limits) (*WalkTree, error) {
	return walker.Walk(data, hostile.NewBudget(lim))
}

// ScanTree walks data as a container tree and scans every discovered
// document under the detector's limits plus the context deadline. The
// degraded flag marks partial results (children lost to corruption or
// budget limits).
func ScanTree(ctx context.Context, det *Detector, data []byte) ([]TreeDoc, bool, error) {
	return scan.ScanTree(ctx, det, data)
}

// OpenQueue opens (or creates) a durable work queue journaled under dir,
// replaying unacknowledged work from the write-ahead log — the
// crash-recovery path the vbadetectd async intake is built on.
func OpenQueue(dir string, opt QueueOptions) (*WorkQueue, error) {
	return queue.Open(dir, opt)
}

// Deobfuscation and triage — the analyst-facing companions of detection.

// DeobResult is the outcome of static deobfuscation (see internal/deob).
type DeobResult = deob.Result

// TriageReport is an olevba-style triage report (see internal/analysis).
type TriageReport = analysis.Report

// TriageFinding is one triage finding.
type TriageFinding = analysis.Finding

// Deobfuscate constant-folds split and encoded string expressions (the O2
// and O3 obfuscation families), recovering hidden keywords, URLs and paths
// without executing the macro.
func Deobfuscate(src string) DeobResult {
	return deob.Deobfuscate(src)
}

// Triage scans a macro for auto-execution entry points, suspicious
// capability keywords and indicators of compromise, including those only
// visible after deobfuscation.
func Triage(src string) *TriageReport {
	return analysis.Analyze(src)
}

// Horizontal scale — the fleet gateway (see cmd/vbadetectgw and
// internal/fleet).

type (
	// Gateway coordinates a fleet of vbadetectd backends: consistent-hash
	// routing on the document SHA-256, a shared verdict cache, hedged
	// retries with transparent failover, and staged model rollout.
	Gateway = fleet.Gateway
	// GatewayConfig tunes a Gateway; zero values take production defaults.
	GatewayConfig = fleet.Config
	// Ring is the consistent-hash ring the gateway routes on, usable
	// standalone for other sharding schemes.
	Ring = fleet.Ring
)

// ErrNoBackends is returned by a gateway with no routable backend.
var ErrNoBackends = fleet.ErrNoBackends

// NewGateway builds a fleet gateway over the configured backends. Call
// Start to begin health probing and Handler for its HTTP surface.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	return fleet.New(cfg)
}

// NewRing builds a consistent-hash ring with the given virtual-node count
// per node (<= 0 applies the default, 128).
func NewRing(vnodes int) *Ring { return fleet.NewRing(vnodes) }
