// Package scan is the concurrent batch-scanning engine: a bounded
// worker pool that runs the paper's extract → featurize → classify
// pipeline (§IV) over a stream of Office documents. The pipeline is
// embarrassingly parallel across documents — the property MEADE-style
// mail-gateway deployments rely on — so throughput scales with
// GOMAXPROCS while per-file results stay identical to sequential
// Detector.ScanFile calls.
package scan

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hostile"
	"repro/internal/telemetry"
)

// DocCache memoizes whole-document scan reports keyed by the SHA-256 of
// the file bytes, so re-submitted attachments (the common case in a mail
// gateway, where one campaign fans the same document out to many inboxes)
// skip the extract → featurize → classify pipeline entirely.
//
// Only clean, complete reports are cached: a degraded report reflects the
// resource limits in force when it was computed, and an error (including
// quarantine-worthy budget exhaustion) may be transient — caching either
// would let one constrained evaluation poison every later scan of the same
// bytes. Those documents re-run the pipeline on every submission.
type DocCache struct {
	c *cache.Cache[*core.FileReport]
}

// NewDocCache returns a cache bounded by maxEntries entries and maxBytes
// charged bytes (either ≤ 0 lifts that bound; both ≤ 0 disables the cache,
// returning nil, which every method tolerates).
func NewDocCache(maxEntries int, maxBytes int64) *DocCache {
	c := cache.New[*core.FileReport](maxEntries, maxBytes)
	if c == nil {
		return nil
	}
	return &DocCache{c: c}
}

// Stats reports the cache's hit/miss/eviction counters and current size.
func (d *DocCache) Stats() cache.Stats {
	if d == nil {
		return cache.Stats{}
	}
	return d.c.Stats()
}

// Get returns the cached report for a document hash, if any.
func (d *DocCache) Get(k cache.Key) (*core.FileReport, bool) {
	if d == nil {
		return nil, false
	}
	return d.c.Get(k)
}

// Put caches a finished report under the document hash. Nil and degraded
// reports are refused (see the poisoning note on DocCache).
func (d *DocCache) Put(k cache.Key, r *core.FileReport) {
	if d == nil || r == nil || r.Degraded {
		return
	}
	d.c.Put(k, r, docCost(r))
}

// docCost approximates a report's retained memory: each macro anchors its
// source string and single parse (a small multiple of the source length),
// plus the recovered storage strings.
func docCost(r *core.FileReport) int64 {
	cost := int64(512)
	for _, m := range r.Macros {
		cost += 4*int64(len(m.Source)) + 512
	}
	for _, s := range r.StorageStrings {
		cost += int64(len(s))
	}
	return cost
}

// Document is one input to the engine.
type Document struct {
	// Name identifies the document in results (a path, usually).
	Name string
	// Data is the raw file content.
	Data []byte
}

// Result is the scan outcome for one document. Exactly one of Report and
// Err is set (a macro-free document reports extract.ErrNoMacros in Err).
type Result struct {
	// Index is the document's position in the input order.
	Index int
	// Name echoes the input document name.
	Name string
	// Report is the per-file classification report.
	Report *core.FileReport
	// Timings is the per-stage wall-clock attribution for this document
	// (extract / featurize / classify), valid even when Err is set for the
	// stages that ran.
	Timings core.Timings
	// Err is the extraction or classification failure, if any.
	Err error
	// Attempts is the number of pipeline attempts made: 1 normally,
	// more when the engine's retry policy re-ran a transient failure,
	// 0 when the report was served from the document cache.
	Attempts int
	// CacheHit marks a report served from the engine's document cache
	// without re-running the pipeline.
	CacheHit bool
	// Quarantined marks a document whose failure exhausted its resource
	// budget (decompression bomb, deadline overrun, limit breach).
	// Retrying such a document is pointless — it needs isolation and a
	// human, not another pass through the pipeline.
	Quarantined bool
	// TraceID / RequestID carry the distributed-trace and HTTP-request
	// identity of the scan, when one exists (request-scoped callers set
	// them; batch scans leave them empty). They flow into audit events.
	TraceID   string
	RequestID string
}

// PanicError wraps a panic recovered while scanning one document, so a
// malformed input that trips a parser bug surfaces as a per-document error
// instead of taking down the whole process.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("scan: panic during scan: %v", e.Value)
}

// ScanOne scans a single document with panic isolation: a panic anywhere
// in the extract → featurize → classify pipeline is recovered and returned
// as a *PanicError. This is the entry point request-scoped callers (the
// HTTP daemon) use; Engine workers route through it too.
func ScanOne(det *core.Detector, data []byte) (*core.FileReport, core.Timings, error) {
	return ScanOneCtx(context.Background(), det, data)
}

// ScanOneCtx is ScanOne under a context: the context deadline becomes the
// document's processing deadline, enforced inside the parsing loops, so a
// hostile document cannot pin the calling goroutine past it.
func ScanOneCtx(ctx context.Context, det *core.Detector, data []byte) (report *core.FileReport, tm core.Timings, err error) {
	defer func() {
		if p := recover(); p != nil {
			report, err = nil, &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return det.ScanFileCtx(ctx, data)
}

// Policy is the engine's failure-handling policy.
type Policy struct {
	// MaxRetries is how many times a failed document is re-attempted
	// (0 = no retries). Only failures Retryable approves are retried;
	// budget exhaustion never is.
	MaxRetries int
	// RetryBackoff is the wait before the first retry, doubling per
	// attempt. Defaults to 50ms.
	RetryBackoff time.Duration
	// Retryable decides whether a failure is worth re-running. Defaults
	// to hostile.IsTransient (I/O-flavored errors only — parse failures
	// and budget exhaustion are deterministic and never retried).
	Retryable func(error) bool
}

func (p Policy) withDefaults() Policy {
	if p.RetryBackoff <= 0 {
		p.RetryBackoff = 50 * time.Millisecond
	}
	if p.Retryable == nil {
		p.Retryable = hostile.IsTransient
	}
	return p
}

// Stats aggregates a scan run. Counters are written with atomics while
// workers run; read them after the result channel has closed (Scan) or
// after the call returns (ScanAll), when they are final.
type Stats struct {
	// Files is the number of documents processed (including failures).
	Files int64
	// Macros is the number of significant macros classified.
	Macros int64
	// Skipped is the number of macros below the significance threshold.
	Skipped int64
	// Errors is the number of documents that failed to scan.
	Errors int64
	// Degraded is the number of documents scanned partially: corruption
	// or limits cost some streams, but surviving macros were classified.
	Degraded int64
	// Quarantined is the number of failed documents whose failure
	// exhausted the resource budget (bombs, deadline overruns) — the
	// subset of Errors that warrants isolation rather than a bug report.
	Quarantined int64
	// Retries is the number of re-attempts made under the retry policy.
	Retries int64
	// CacheHits is the number of documents served from the document cache
	// (counted in Files, but contributing no stage time).
	CacheHits int64
	// ExtractNS, FeaturizeNS and ClassifyNS are cumulative per-stage
	// wall-clock nanoseconds summed across workers (their sum can exceed
	// WallNS when workers run in parallel).
	ExtractNS   int64
	FeaturizeNS int64
	ClassifyNS  int64
	// WallNS is the elapsed wall-clock time of the whole run.
	WallNS int64
}

// FilesPerSec is the document throughput of the run.
func (s *Stats) FilesPerSec() float64 { return perSec(s.Files, s.WallNS) }

// MacrosPerSec is the classified-macro throughput of the run.
func (s *Stats) MacrosPerSec() float64 { return perSec(s.Macros, s.WallNS) }

func perSec(n, wallNS int64) float64 {
	if wallNS <= 0 {
		return 0
	}
	return float64(n) / (float64(wallNS) / float64(time.Second))
}

// Engine is a reusable concurrent batch scanner around a trained detector.
type Engine struct {
	det     *core.Detector
	workers int
	policy  Policy
	docs    *DocCache
	// flight collapses concurrent scans of one document key while docs
	// is attached.
	flight cache.Flight[Result]

	// Telemetry (all optional; nil = disabled with no per-document cost).
	traceSink func(*telemetry.Tracer)
	audit     *telemetry.AuditLogger

	// Engine-lifetime gauges/counters read by RegisterMetrics gauge funcs.
	queued    atomic.Int64
	busy      atomic.Int64
	telFiles  atomic.Int64
	telMacros atomic.Int64
	started   time.Time
}

// New returns an engine running at most workers concurrent scans
// (workers <= 0 means GOMAXPROCS).
func New(det *core.Detector, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{det: det, workers: workers, started: time.Now()}
}

// Workers reports the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// SetPolicy configures the engine's retry/quarantine policy. Call before
// Scan/ScanAll; the zero Policy (no retries, transient-only detection)
// is the default.
func (e *Engine) SetPolicy(p Policy) { e.policy = p }

// SetDocCache attaches a document-level report cache consulted before each
// scan. A nil cache (the default) disables memoization. The cache is tied
// to the detector's trained model — share it across engines only while
// they share the model, and attach a fresh cache after a model swap. Call
// before Scan/ScanAll.
func (e *Engine) SetDocCache(c *DocCache) { e.docs = c }

// DocCache returns the attached document cache (nil when disabled).
func (e *Engine) DocCache() *DocCache { return e.docs }

// SetTraceSink enables per-document tracing: every scanned document gets
// its own telemetry.Tracer whose finished span tree is handed to sink
// (called concurrently from workers — telemetry.TraceWriter is a ready
// sink). A nil sink disables tracing. Call before Scan/ScanAll.
func (e *Engine) SetTraceSink(sink func(*telemetry.Tracer)) { e.traceSink = sink }

// SetAudit attaches a verdict audit log: one sampled AuditEvent per
// document, carrying the feature vectors, scores, triage summary and
// disposition flags. A nil logger disables auditing. Call before
// Scan/ScanAll.
func (e *Engine) SetAudit(a *telemetry.AuditLogger) { e.audit = a }

// RegisterMetrics publishes the engine's scan gauges on reg: queue depth,
// in-flight workers, cumulative files/macros and their per-second rates
// over the engine's lifetime. Register one engine per registry (the gauge
// funcs capture this engine).
func (e *Engine) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("scan_queue_depth",
		"Documents admitted to the engine but not yet scanning.",
		func() float64 { return float64(e.queued.Load()) })
	reg.GaugeFunc("scan_inflight_workers",
		"Workers currently scanning a document.",
		func() float64 { return float64(e.busy.Load()) })
	reg.GaugeFunc("scan_files_total",
		"Documents scanned over the engine's lifetime.",
		func() float64 { return float64(e.telFiles.Load()) })
	reg.GaugeFunc("scan_macros_total",
		"Significant macros classified over the engine's lifetime.",
		func() float64 { return float64(e.telMacros.Load()) })
	reg.GaugeFunc("scan_files_per_sec",
		"Mean document throughput since the engine was created.",
		func() float64 { return e.rate(e.telFiles.Load()) })
	reg.GaugeFunc("scan_macros_per_sec",
		"Mean macro throughput since the engine was created.",
		func() float64 { return e.rate(e.telMacros.Load()) })
	reg.CounterFunc("scan_cache_hits",
		"Documents served from the document cache.",
		func() int64 { return e.docs.Stats().Hits })
	reg.CounterFunc("scan_cache_misses",
		"Documents that missed the document cache.",
		func() int64 { return e.docs.Stats().Misses })
	reg.CounterFunc("scan_cache_evictions",
		"Reports evicted from the document cache under capacity pressure.",
		func() int64 { return e.docs.Stats().Evictions })
	reg.GaugeFunc("scan_cache_entries",
		"Reports currently held by the document cache.",
		func() float64 { return float64(e.docs.Stats().Entries) })
	reg.GaugeFunc("scan_cache_bytes",
		"Approximate bytes retained by the document cache.",
		func() float64 { return float64(e.docs.Stats().Bytes) })
}

func (e *Engine) rate(n int64) float64 {
	secs := time.Since(e.started).Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(n) / secs
}

// Scan consumes documents from in until it closes or ctx is canceled,
// scanning across the engine's workers. Results arrive on the returned
// channel in completion order (use Result.Index to recover input order);
// the channel closes once all workers have drained. On cancellation
// workers stop promptly without consuming further input, and pending
// documents produce no result. The returned Stats is final once the
// result channel has closed.
func (e *Engine) Scan(ctx context.Context, in <-chan Document) (<-chan Result, *Stats) {
	out := make(chan Result, e.workers)
	stats := &Stats{}
	start := time.Now()

	// A single distributor tags documents with their input index so the
	// worker pool can emit in completion order without losing ordering
	// information.
	type indexed struct {
		doc   Document
		index int
	}
	feed := make(chan indexed)
	go func() {
		defer close(feed)
		i := 0
		for {
			select {
			case <-ctx.Done():
				return
			case doc, ok := <-in:
				if !ok {
					return
				}
				e.queued.Add(1)
				select {
				case feed <- indexed{doc: doc, index: i}:
					i++
				case <-ctx.Done():
					e.queued.Add(-1)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		// pprof labels tag each worker goroutine so CPU/goroutine profiles
		// of a loaded process attribute scan work to the engine's pool.
		go pprof.Do(ctx, pprof.Labels("subsystem", "scan", "scan_worker", strconv.Itoa(w)),
			func(ctx context.Context) {
				defer wg.Done()
				for {
					select {
					case <-ctx.Done():
						return
					case item, ok := <-feed:
						if !ok {
							return
						}
						e.queued.Add(-1)
						res := e.scanOne(ctx, item.doc, item.index, stats)
						select {
						case out <- res:
						case <-ctx.Done():
							return
						}
					}
				}
			})
	}
	go func() {
		wg.Wait()
		atomic.StoreInt64(&stats.WallNS, time.Since(start).Nanoseconds())
		close(out)
	}()
	return out, stats
}

// ScanAll scans docs and returns one result per document in input order.
// It stops early (returning ctx.Err()) when ctx is canceled; per-document
// failures are reported in the results, not as the error.
func (e *Engine) ScanAll(ctx context.Context, docs []Document) ([]Result, *Stats, error) {
	stats := &Stats{}
	results := make([]Result, len(docs))
	start := time.Now()
	workers := e.workers
	if workers > len(docs) {
		workers = len(docs)
	}
	var next, claimed atomic.Int64
	next.Store(-1)
	e.queued.Add(int64(len(docs)))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go pprof.Do(ctx, pprof.Labels("subsystem", "scan", "scan_worker", strconv.Itoa(w)),
			func(ctx context.Context) {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1))
					if i >= len(docs) {
						return
					}
					claimed.Add(1)
					e.queued.Add(-1)
					results[i] = e.scanOne(ctx, docs[i], i, stats)
				}
			})
	}
	wg.Wait()
	// On cancellation some documents were never claimed; return them so
	// the queue-depth gauge does not stay elevated forever.
	e.queued.Add(claimed.Load() - int64(len(docs)))
	stats.WallNS = time.Since(start).Nanoseconds()
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}

// scanOne scans one document, through the document cache when one is
// attached. Concurrent scans of the same document key collapse into one:
// the leader looks the report up or runs the pipeline (and caches a clean
// report), and followers are served the leader's clean report as a cache
// hit. Errors and degraded reports are never shared as hits — a follower
// of such a leader runs its own pipeline, as an uncached scan would.
func (e *Engine) scanOne(ctx context.Context, doc Document, index int, stats *Stats) Result {
	e.busy.Add(1)
	defer e.busy.Add(-1)
	if e.docs == nil {
		return e.runPipeline(ctx, doc, index, stats)
	}
	// The key is salted with the detector's feature-set identity, so a
	// cache shared across engine generations (model retrained on a new
	// channel layout) misses cleanly instead of serving stale verdicts.
	key := cache.KeyOfSalted(e.det.FeatureSetID(), doc.Data)
	res, _, leader := e.flight.Do(key, func() (Result, error) {
		if report, ok := e.docs.Get(key); ok {
			return e.serveCached(doc, index, report, stats), nil
		}
		res := e.runPipeline(ctx, doc, index, stats)
		if res.Err == nil {
			e.docs.Put(key, res.Report) // Put refuses degraded reports
		}
		return res, nil
	})
	switch {
	case leader:
		return res
	case res.Err != nil || res.Report.Degraded:
		return e.runPipeline(ctx, doc, index, stats)
	default:
		return e.serveCached(doc, index, res.Report, stats)
	}
}

// serveCached answers one document with a report the cache (or a
// concurrent scan of the same bytes) already holds.
func (e *Engine) serveCached(doc Document, index int, report *core.FileReport, stats *Stats) Result {
	if e.traceSink != nil {
		tr := telemetry.NewTracer(doc.Name)
		tr.Root().Annotate("cache", "hit")
		tr.Finish()
		e.traceSink(tr)
	}
	atomic.AddInt64(&stats.Files, 1)
	atomic.AddInt64(&stats.CacheHits, 1)
	atomic.AddInt64(&stats.Macros, int64(len(report.Macros)))
	atomic.AddInt64(&stats.Skipped, int64(report.Skipped))
	e.telFiles.Add(1)
	e.telMacros.Add(int64(len(report.Macros)))
	res := Result{Index: index, Name: doc.Name, Report: report, CacheHit: true}
	e.auditResult(doc, res)
	return res
}

// runPipeline runs the pipeline on one document under the retry policy and
// accumulates stats. Result.Timings accumulates across attempts — a
// document that failed twice and succeeded on the third try reports the
// stage time of all three passes, matching what the worker actually spent.
func (e *Engine) runPipeline(ctx context.Context, doc Document, index int, stats *Stats) Result {
	pol := e.policy.withDefaults()

	var tr *telemetry.Tracer
	if e.traceSink != nil {
		tr = telemetry.NewTracer(doc.Name)
		ctx = telemetry.ContextWithTracer(ctx, tr)
	}

	var (
		report   *core.FileReport
		total    core.Timings
		err      error
		attempts int
	)
	for {
		attempts++
		var tm core.Timings
		report, tm, err = ScanOneCtx(ctx, e.det, doc.Data)
		total.Add(tm)
		atomic.AddInt64(&stats.ExtractNS, tm.ExtractNS)
		atomic.AddInt64(&stats.FeaturizeNS, tm.FeaturizeNS)
		atomic.AddInt64(&stats.ClassifyNS, tm.ClassifyNS)
		if err == nil || attempts > pol.MaxRetries ||
			!pol.Retryable(err) || ctx.Err() != nil {
			break
		}
		atomic.AddInt64(&stats.Retries, 1)
		backoff := pol.RetryBackoff << (attempts - 1)
		select {
		case <-ctx.Done():
		case <-time.After(backoff):
		}
	}
	if tr != nil {
		if attempts > 1 {
			tr.Root().Annotate("attempts", strconv.Itoa(attempts))
		}
		tr.Finish()
		e.traceSink(tr)
	}
	atomic.AddInt64(&stats.Files, 1)
	e.telFiles.Add(1)
	res := Result{Index: index, Name: doc.Name, Timings: total, Attempts: attempts}
	if err != nil {
		atomic.AddInt64(&stats.Errors, 1)
		res.Err = err
		res.Quarantined = hostile.ExhaustsBudget(err)
		if res.Quarantined {
			atomic.AddInt64(&stats.Quarantined, 1)
		}
	} else {
		res.Report = report
		if report.Degraded {
			atomic.AddInt64(&stats.Degraded, 1)
		}
		atomic.AddInt64(&stats.Macros, int64(len(report.Macros)))
		atomic.AddInt64(&stats.Skipped, int64(report.Skipped))
		e.telMacros.Add(int64(len(report.Macros)))
	}
	e.auditResult(doc, res)
	return res
}

// auditResult feeds one scan outcome into the engine's audit log, if any.
func (e *Engine) auditResult(doc Document, res Result) {
	if e.audit == nil {
		return
	}
	var fs core.FeatureSet
	if e.det != nil {
		fs = e.det.FeatureSet()
	}
	LogAudit(e.audit, doc, fs, res)
}

// LogAudit records one scan outcome in an audit log. The full event
// (triage, vector copies) is only built for documents the sampling
// filter keeps; sampled-out documents log a skeleton event that is never
// serialized but counts toward the logger's drop statistics. A nil
// logger is a no-op.
func LogAudit(a *telemetry.AuditLogger, doc Document, fs core.FeatureSet, res Result) {
	if a == nil {
		return
	}
	sha := HashDocument(doc.Data)
	if !a.ShouldSample(sha) {
		a.Log(&telemetry.AuditEvent{Doc: doc.Name, SHA256: sha})
		return
	}
	a.Log(BuildAuditEvent(doc.Name, sha, fs, res))
}

// HashDocument returns the hex SHA-256 of a document's bytes — the audit
// log's sampling and join key.
func HashDocument(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// BuildAuditEvent assembles the verdict audit record for one scan
// outcome: feature vectors and scores per macro, a triage summary
// (auto-exec, suspicious keywords, IOC count) computed from each macro's
// shared parse, stage timings, and the disposition flags. sha is
// HashDocument of the scanned bytes.
func BuildAuditEvent(name, sha string, fs core.FeatureSet, res Result) *telemetry.AuditEvent {
	ev := &telemetry.AuditEvent{
		Doc:         name,
		SHA256:      sha,
		TraceID:     res.TraceID,
		RequestID:   res.RequestID,
		FeatureSet:  fs.String(),
		Attempts:    res.Attempts,
		Quarantined: res.Quarantined,
		ExtractNS:   res.Timings.ExtractNS,
		FeaturizeNS: res.Timings.FeaturizeNS,
		ClassifyNS:  res.Timings.ClassifyNS,
	}
	if res.Err != nil {
		ev.Error = res.Err.Error()
		ev.ErrorClass = hostile.Classify(res.Err)
		return ev
	}
	report := res.Report
	ev.Format = report.Format
	ev.Obfuscated = report.Obfuscated()
	ev.Skipped = report.Skipped
	ev.Degraded = report.Degraded
	for _, m := range report.Macros {
		am := telemetry.AuditMacro{
			Module:      m.Module,
			Obfuscated:  m.Obfuscated,
			Score:       m.Score,
			SourceBytes: len(m.Source),
		}
		if m.Analysis != nil {
			am.Features = m.Analysis.Features(fs)
			triage := m.Analysis.Triage()
			am.AutoExec = triage.HasAutoExec()
			am.Suspicious = triage.Suspicious()
			am.IOCs = len(triage.IOCs())
			am.Folds = triage.Folds
		}
		ev.Macros = append(ev.Macros, am)
	}
	return ev
}
