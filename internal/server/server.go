// Package server is the long-running scan service: an HTTP daemon that
// loads a trained detector once and classifies Office documents on demand,
// the MEADE-style deployment shape (a detection engine fed a continuous
// attachment stream) built on the batch engine from internal/scan.
//
// The server is defensive by construction: request bodies are size-capped,
// scans run under a bounded in-flight semaphore with per-request
// deadlines, a panic while parsing one malformed document is isolated to
// that request, and the model can be hot-swapped (SIGHUP or
// POST /v1/admin/reload) behind an RWMutex without dropping traffic.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/hostile"
	"repro/internal/scan"
	"repro/internal/telemetry"
)

// Config tunes the scan daemon. The zero value is usable: every field has
// a production default applied by New.
type Config struct {
	// ModelPath is the model file reloaded on SIGHUP / admin reload.
	// Empty disables reloading (the initial detector stays pinned).
	ModelPath string
	// MaxBodyBytes caps a request body (raw or multipart). Default 32 MiB.
	MaxBodyBytes int64
	// MaxInFlight bounds concurrently processed scan requests. Default
	// 2 × GOMAXPROCS.
	MaxInFlight int
	// QueueWait is how long a request waits for a free slot before 429.
	// Default 5s.
	QueueWait time.Duration
	// ScanTimeout is the per-request processing deadline. Default 30s.
	ScanTimeout time.Duration
	// BatchWorkers is the scan.Engine worker count for /v1/scan/batch.
	// Default GOMAXPROCS.
	BatchWorkers int
	// MaxBatchFiles caps documents per batch request. Default 256.
	MaxBatchFiles int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// CacheEntries bounds the content-addressed verdict caches (one
	// document-level, one macro-level) to that many entries each. 0
	// applies the 4096-entry default; negative disables both caches and
	// the collapsing of concurrent identical requests.
	CacheEntries int
	// CacheBytes bounds each verdict cache's charged memory. 0 applies
	// the 256 MiB default; negative lifts the byte bound (the caches are
	// then bounded by CacheEntries alone).
	CacheBytes int64
	// Limits is the per-document resource budget (decompressed bytes,
	// container depth, lexer tokens, ...) applied to every scan. Zero
	// fields take the hostile package defaults. The budget also inherits
	// each request's ScanTimeout as its processing deadline.
	Limits hostile.Limits
	// Logger receives structured request logs. Default: JSON to stderr.
	Logger *slog.Logger
	// Audit, when set, receives a verdict audit event for every scanned
	// document (single and batch), subject to the logger's own sampling
	// and rate caps. Nil disables auditing.
	Audit *telemetry.AuditLogger
	// DriftWarnPSI is the per-channel PSI above which /healthz reports the
	// drift detail as "warn". Drift never fails a scan or a health check.
	// 0 applies the 0.2 default; negative disables drift monitoring.
	DriftWarnPSI float64
	// DriftWindow is the rolling production-score window per channel, in
	// observations. 0 applies telemetry.DefaultDriftWindow.
	DriftWindow int
	// SLOAvailabilityTarget / SLOLatencyTarget / SLOLatencyThreshold tune
	// the rolling SLO tracker behind the slo_* gauges: the availability
	// objective (fraction of /v1/ requests answered below 500), the
	// latency objective (fraction answered within the threshold), and the
	// threshold itself. Zeros apply 0.999 / 0.99 / 500ms.
	SLOAvailabilityTarget float64
	SLOLatencyTarget      float64
	SLOLatencyThreshold   time.Duration
	// DebugTraceBuffer is how many recent span trees the server retains
	// for the debug bundle. 0 applies the 64 default.
	DebugTraceBuffer int
	// Intake configures the durable async intake path (POST /v1/submit);
	// see IntakeConfig. Activated by calling StartIntake.
	Intake IntakeConfig
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if c.ScanTimeout <= 0 {
		c.ScanTimeout = 30 * time.Second
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatchFiles <= 0 {
		c.MaxBatchFiles = 256
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if c.DriftWarnPSI == 0 {
		c.DriftWarnPSI = 0.2
	}
	if c.DebugTraceBuffer <= 0 {
		c.DebugTraceBuffer = 64
	}
	return c
}

// cacheBounds resolves the cache configuration: entries is the master
// switch (negative disables caching entirely), and each zero field takes
// its production default.
func (c Config) cacheBounds() (entries int, bytes int64, enabled bool) {
	if c.CacheEntries < 0 {
		return 0, 0, false
	}
	entries = c.CacheEntries
	if entries == 0 {
		entries = 4096
	}
	bytes = c.CacheBytes
	if bytes == 0 {
		bytes = 256 << 20
	}
	if bytes < 0 {
		bytes = 0
	}
	return entries, bytes, true
}

// Server is the scan daemon: a trained detector behind HTTP handlers with
// observability, admission control and hot model reload.
type Server struct {
	cfg     Config
	log     *slog.Logger
	metrics *Metrics

	mu     sync.RWMutex // guards det, docs, flight, drift and cacheBase across hot reloads
	det    *core.Detector
	docs   *scan.DocCache
	flight *cache.Flight[scanOutcome]
	// drift scores recent production score distributions against the
	// model's train-time baselines; rebuilt with the detector on Reload
	// (baselines belong to the model that shipped them).
	drift *telemetry.DriftMonitor
	// cacheBase accumulates the hit/miss/eviction counters of caches
	// retired by Reload, keeping the exported cache metrics monotonic
	// across model swaps.
	cacheBase struct {
		doc   cache.Stats
		macro cache.Stats
	}

	sem      chan struct{}
	draining atomic.Bool
	inflight sync.WaitGroup
	reqSeq   atomic.Uint64

	// slo tracks rolling availability/latency SLIs over the /v1/ API;
	// recent retains the last few span trees for the debug bundle.
	slo    *telemetry.SLOTracker
	recent *traceRing

	// intake is the durable async-submission path, nil until StartIntake.
	intake *intake

	// scanGate, when set (tests only), is invoked while a scan holds its
	// semaphore slot, letting tests hold requests in flight deterministically.
	scanGate func()
}

// New wraps a trained detector in a Server. det may be nil: the server
// starts unready and becomes ready after the first successful Reload.
func New(det *core.Detector, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		metrics: NewMetrics(),
		det:     det,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		slo:     telemetry.NewSLOTracker(cfg.SLOAvailabilityTarget, cfg.SLOLatencyTarget, cfg.SLOLatencyThreshold),
		recent:  newTraceRing(cfg.DebugTraceBuffer),
	}
	if det != nil {
		s.wireDetector(det)
		s.drift = s.newDriftMonitor(det)
	}
	if entries, bytes, ok := cfg.cacheBounds(); ok {
		s.docs = scan.NewDocCache(entries, bytes)
		s.flight = &cache.Flight[scanOutcome]{}
	}
	s.registerCacheMetrics()
	s.registerObservability()
	return s
}

// newDriftMonitor builds the drift monitor for a freshly loaded detector,
// seeded with the train-time score baselines embedded in its model
// container. Nil when drift monitoring is disabled; a model saved before
// baselines existed yields a monitor with unbaselined channels (PSI 0).
func (s *Server) newDriftMonitor(det *core.Detector) *telemetry.DriftMonitor {
	if s.cfg.DriftWarnPSI < 0 || det == nil {
		return nil
	}
	m := telemetry.NewDriftMonitor(s.cfg.DriftWindow)
	for _, b := range det.Baselines() {
		m.SetBaseline(b.Channel, b.Bins)
	}
	return m
}

// registerObservability publishes the fleet-facing instruments: the SLO
// gauges, the per-channel drift gauge and the build-info metric.
func (s *Server) registerObservability() {
	reg := s.metrics.Registry()
	s.slo.Register(reg)
	reg.LabeledGaugeFunc("model_drift_psi",
		"PSI between the model's train-time score distribution and recent production scores, per channel.",
		"channel", s.driftSnapshot)
	reg.InfoFunc("vbadetect_build_info",
		"Build and model identity as labels; value is always 1.",
		s.buildInfo)
}

// driftSnapshot reads the live drift monitor under the reload lock.
func (s *Server) driftSnapshot() ([]string, []float64) {
	s.mu.RLock()
	d := s.drift
	s.mu.RUnlock()
	return d.Snapshot()
}

// observeDrift feeds one production channel score into the live monitor.
func (s *Server) observeDrift(channel string, score float64) {
	s.mu.RLock()
	d := s.drift
	s.mu.RUnlock()
	d.Observe(channel, score)
}

// buildInfo assembles the build_info labels: binary version, Go
// toolchain, and the loaded model's identity (when one is loaded).
func (s *Server) buildInfo() map[string]string {
	info := map[string]string{
		"go_version": runtime.Version(),
		"version":    buildVersion(),
	}
	if det := s.detector(); det != nil {
		info["feature_set"] = det.FeatureSet().String()
		info["model"] = det.FeatureSetID()
	}
	return info
}

// buildVersion resolves the binary's version from build metadata: the
// module version when stamped, else the VCS revision, else "devel".
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" && kv.Value != "" {
			return kv.Value
		}
	}
	return "devel"
}

// newMacroCache builds a macro-level verdict cache per the configured
// bounds (nil when caching is disabled).
func (s *Server) newMacroCache() *core.MacroCache {
	entries, bytes, ok := s.cfg.cacheBounds()
	if !ok {
		return nil
	}
	return core.NewMacroCache(entries, bytes)
}

// wireDetector applies the server's per-detector configuration: resource
// limits and a fresh macro cache.
func (s *Server) wireDetector(det *core.Detector) {
	det.SetLimits(s.cfg.Limits)
	det.SetMacroCache(s.newMacroCache())
}

// NewFromModelFile loads the model at cfg.ModelPath (or path, which
// overrides it) and returns a ready server.
func NewFromModelFile(path string, cfg Config) (*Server, error) {
	if path != "" {
		cfg.ModelPath = path
	}
	s := New(nil, cfg)
	if err := s.Reload(); err != nil {
		return nil, err
	}
	return s, nil
}

// Metrics exposes the server's metric tree (the /metrics payload).
func (s *Server) Metrics() *Metrics { return s.metrics }

// detector returns the current model under the read lock.
func (s *Server) detector() *core.Detector {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.det
}

// pipeline snapshots the scan pipeline under the read lock: the current
// model plus the document cache and request-collapsing group tied to it.
func (s *Server) pipeline() (*core.Detector, *scan.DocCache, *cache.Flight[scanOutcome]) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.det, s.docs, s.flight
}

// docCacheStats returns document-cache counters accumulated across model
// reloads (counters from retired caches are folded into the base, so the
// exported metrics stay monotonic).
func (s *Server) docCacheStats() cache.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.docs.Stats()
	st.Hits += s.cacheBase.doc.Hits
	st.Misses += s.cacheBase.doc.Misses
	st.Evictions += s.cacheBase.doc.Evictions
	return st
}

// macroCacheStats is docCacheStats for the macro-level cache.
func (s *Server) macroCacheStats() cache.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st cache.Stats
	if s.det != nil {
		st = s.det.MacroCache().Stats()
	}
	st.Hits += s.cacheBase.macro.Hits
	st.Misses += s.cacheBase.macro.Misses
	st.Evictions += s.cacheBase.macro.Evictions
	return st
}

// registerCacheMetrics publishes the verdict-cache counters and gauges.
// Counters read through the reload-safe accumulators; gauges reflect the
// live caches only.
func (s *Server) registerCacheMetrics() {
	reg := s.metrics.Registry()
	reg.CounterFunc("cache_hits",
		"Scans served from the document verdict cache.",
		func() int64 { return s.docCacheStats().Hits })
	reg.CounterFunc("cache_misses",
		"Scans that missed the document verdict cache.",
		func() int64 { return s.docCacheStats().Misses })
	reg.CounterFunc("cache_evictions",
		"Reports evicted from the document verdict cache.",
		func() int64 { return s.docCacheStats().Evictions })
	reg.GaugeFunc("cache_entries",
		"Reports currently held by the document verdict cache.",
		func() float64 { return float64(s.docCacheStats().Entries) })
	reg.GaugeFunc("cache_bytes",
		"Approximate bytes retained by the document verdict cache.",
		func() float64 { return float64(s.docCacheStats().Bytes) })
	reg.CounterFunc("macro_cache_hits",
		"Macros served from the macro verdict cache.",
		func() int64 { return s.macroCacheStats().Hits })
	reg.CounterFunc("macro_cache_misses",
		"Macros that missed the macro verdict cache.",
		func() int64 { return s.macroCacheStats().Misses })
	reg.CounterFunc("macro_cache_evictions",
		"Entries evicted from the macro verdict cache.",
		func() int64 { return s.macroCacheStats().Evictions })
	reg.GaugeFunc("macro_cache_entries",
		"Entries currently held by the macro verdict cache.",
		func() float64 { return float64(s.macroCacheStats().Entries) })
	reg.GaugeFunc("macro_cache_bytes",
		"Approximate bytes retained by the macro verdict cache.",
		func() float64 { return float64(s.macroCacheStats().Bytes) })
	// First-class hit ratios, computed from the monotonic counters so
	// dashboards and the fleet gateway don't each re-derive them. Lifetime
	// ratios (counters survive reloads via cacheBase); 0 until the first
	// lookup.
	reg.GaugeFunc("cache_hit_ratio",
		"Lifetime document verdict cache hit ratio (hits / lookups).",
		func() float64 { return hitRatio(s.docCacheStats()) })
	reg.GaugeFunc("macro_cache_hit_ratio",
		"Lifetime macro verdict cache hit ratio (hits / lookups).",
		func() float64 { return hitRatio(s.macroCacheStats()) })
}

// hitRatio derives hits/(hits+misses) from a counter snapshot, 0 when the
// cache has never been consulted.
func hitRatio(st cache.Stats) float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Reload re-reads Config.ModelPath and swaps the detector in under the
// write lock; in-flight scans keep the model they started with. Both
// verdict caches are replaced along with the model — cached verdicts are
// only valid for the model that produced them — with their counters
// folded into the monotonic metric base.
func (s *Server) Reload() error {
	if s.cfg.ModelPath == "" {
		return errors.New("server: no model path configured")
	}
	det, err := core.LoadModelFile(s.cfg.ModelPath)
	if err != nil {
		return fmt.Errorf("server: reload: %w", err)
	}
	s.wireDetector(det)
	drift := s.newDriftMonitor(det)
	var docs *scan.DocCache
	var flight *cache.Flight[scanOutcome]
	if entries, bytes, ok := s.cfg.cacheBounds(); ok {
		docs = scan.NewDocCache(entries, bytes)
		flight = &cache.Flight[scanOutcome]{}
	}
	s.mu.Lock()
	oldDoc := s.docs.Stats()
	s.cacheBase.doc.Hits += oldDoc.Hits
	s.cacheBase.doc.Misses += oldDoc.Misses
	s.cacheBase.doc.Evictions += oldDoc.Evictions
	if s.det != nil {
		old := s.det.MacroCache().Stats()
		s.cacheBase.macro.Hits += old.Hits
		s.cacheBase.macro.Misses += old.Misses
		s.cacheBase.macro.Evictions += old.Evictions
	}
	s.det = det
	s.docs = docs
	s.flight = flight
	s.drift = drift
	s.mu.Unlock()
	s.metrics.Reloads.Add(1)
	s.log.Info("model reloaded",
		"path", s.cfg.ModelPath,
		"algorithm", string(det.Algorithm()),
		"feature_set", det.FeatureSet().String())
	return nil
}

// BeginShutdown flips /readyz to 503 so load balancers stop routing new
// traffic while http.Server.Shutdown drains in-flight requests.
func (s *Server) BeginShutdown() { s.draining.Store(true) }

// Close stops the intake workers (waiting for jobs they hold) and closes
// the intake journal. Call after Drain. Idempotent; the error is always
// nil (Close keeps the io.Closer shape).
func (s *Server) Close() error {
	s.stopIntake()
	return nil
}

// Drain blocks until every in-flight scan has finished (including scans
// whose requester already timed out) or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler builds the daemon's routing table wrapped in request logging.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scan", s.handleScan)
	mux.HandleFunc("POST /v1/scan/batch", s.handleScanBatch)
	mux.HandleFunc("GET /v1/model", s.handleModel)
	mux.HandleFunc("POST /v1/admin/reload", s.handleReload)
	mux.HandleFunc("GET /v1/admin/debug/bundle", s.handleDebugBundle)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.metrics)
	if s.intake != nil {
		mux.HandleFunc("POST /v1/submit", s.intake.handleSubmit)
		mux.HandleFunc("GET /v1/tickets/{id}", s.intake.handleTicket)
		mux.HandleFunc("GET /v1/admin/intake/dead", s.intake.handleDeadLetters)
		mux.HandleFunc("POST /v1/admin/intake/redrive/{id}", s.intake.handleRedrive)
	}
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.withRequestLog(mux)
}

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// requestIDKey carries the per-request ID through the context.
type requestIDKey struct{}

// requestID extracts the request's ID (set by withRequestLog).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// traceContextKey carries the request's W3C trace context.
type traceContextKey struct{}

// traceContext extracts the request's trace context (set by
// withRequestLog). The context's SpanID is the server's own span for this
// request — handing it to the next hop parents that hop under us.
func traceContext(ctx context.Context) telemetry.TraceContext {
	tc, _ := ctx.Value(traceContextKey{}).(telemetry.TraceContext)
	return tc
}

// withRequestLog assigns every request an ID (honoring X-Request-ID) and
// a W3C trace context (joining an incoming traceparent or minting a fresh
// trace), echoes both on the response, logs the request structured on
// completion, and feeds the request metrics and the /v1/ SLO tracker.
func (s *Server) withRequestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		// Join the caller's trace when a valid traceparent came in (our
		// span becomes a child of theirs); otherwise root a fresh trace,
		// so every request is traceable either way.
		tc, _ := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
		if tc.IsValid() {
			tc = tc.Child()
		} else {
			tc = telemetry.NewTraceContext()
		}
		w.Header().Set("traceparent", tc.Traceparent())
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ctx := context.WithValue(r.Context(), requestIDKey{}, id)
		ctx = context.WithValue(ctx, traceContextKey{}, tc)
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		s.metrics.Requests.Add(r.Method+" "+r.URL.Path, 1)
		s.metrics.observeStatus(sw.status)
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			s.slo.Observe(sw.status, elapsed)
		}
		s.log.Info("request",
			"id", id,
			"trace_id", tc.TraceID,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"elapsed_ms", float64(elapsed.Nanoseconds())/1e6,
			"remote", r.RemoteAddr)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.healthBody())
}

// healthBody assembles the /healthz payload (also bundled by the debug
// endpoint). Drift is a detail, never a failure: a drifting model still
// answers scans, it just tells operators to look at it.
func (s *Server) healthBody() map[string]any {
	resp := map[string]any{"status": "ok"}
	if in := s.intake; in != nil {
		st := in.q.Stats()
		resp["intake"] = map[string]any{
			"depth":    st.Depth,
			"inflight": st.InFlight,
			"dead":     st.Dead,
		}
	}
	s.mu.RLock()
	drift := s.drift
	s.mu.RUnlock()
	if name, psi, ok := drift.MaxPSI(); ok {
		status := "ok"
		if psi >= s.cfg.DriftWarnPSI {
			status = "warn"
		}
		resp["drift"] = map[string]any{
			"status":        status,
			"worst_channel": name,
			"max_psi":       psi,
			"warn_psi":      s.cfg.DriftWarnPSI,
		}
	}
	if s.slo != nil {
		short := s.slo.Read(telemetry.SLOShortWindow)
		long := s.slo.Read(telemetry.SLOLongWindow)
		resp["slo"] = map[string]any{
			"availability_5m":      short.Availability,
			"availability_1h":      long.Availability,
			"availability_burn_5m": short.AvailabilityBurn,
			"latency_burn_5m":      short.LatencyBurn,
		}
	}
	return resp
}

// ChannelInfo is one feature channel's identity in the /v1/model payload.
type ChannelInfo struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	Dim     int    `json:"dim"`
}

// ModelResponse is the GET /v1/model payload: the loaded model's full
// identity. A fleet gateway compares ModelSHA256 and FeatureSetID across
// backends to detect version skew before routing; operators previously had
// to scrape vbadetect_build_info to recover the same facts.
type ModelResponse struct {
	// ModelSHA256 is the hex SHA-256 of the serialized model image.
	ModelSHA256 string `json:"model_sha256"`
	// FeatureSet is the human-readable feature-set name ("v", "stack", ...).
	FeatureSet string `json:"feature_set"`
	// FeatureSetID is the cache-salt identity (set name plus every
	// channel's name@version:dim) — the same string salted into verdict
	// cache keys.
	FeatureSetID string        `json:"feature_set_id"`
	Algorithm    string        `json:"algorithm"`
	Channels     []ChannelInfo `json:"channels"`
	// Version and GoVersion mirror the vbadetect_build_info labels.
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
}

// handleModel reports the loaded model's identity as JSON. 503 until a
// model is loaded — a gateway treats that exactly like an unready backend.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	det := s.detector()
	if det == nil {
		s.setRetryAfter(w, retryAfterNotReady)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no model loaded"})
		return
	}
	fs := det.FeatureSet()
	chans := fs.Channels()
	info := make([]ChannelInfo, len(chans))
	for i, c := range chans {
		info[i] = ChannelInfo{Name: c.Name, Version: c.Version, Dim: c.Dim()}
	}
	writeJSON(w, http.StatusOK, ModelResponse{
		ModelSHA256:  det.ModelSHA(),
		FeatureSet:   fs.String(),
		FeatureSetID: det.FeatureSetID(),
		Algorithm:    string(det.Algorithm()),
		Channels:     info,
		Version:      buildVersion(),
		GoVersion:    runtime.Version(),
	})
}

// Retry-After hints on backpressure responses, in seconds. A draining
// server is about to disappear behind its load balancer, so the hint is
// longer than a transient not-ready blip.
const (
	retryAfterNotReady = 1
	retryAfterDraining = 10
)

// setRetryAfter attaches a Retry-After hint so clients (and the fleet
// gateway's hedging/backoff) know when a retry is worth sending instead of
// guessing.
func (s *Server) setRetryAfter(w http.ResponseWriter, seconds int) {
	w.Header().Set("Retry-After", strconv.Itoa(seconds))
}

// writeNotReady answers a scan that arrived while the server is draining
// or has no model, with a Retry-After matching the cause.
func (s *Server) writeNotReady(w http.ResponseWriter) {
	if s.draining.Load() {
		s.setRetryAfter(w, retryAfterDraining)
	} else {
		s.setRetryAfter(w, retryAfterNotReady)
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "not ready"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		s.setRetryAfter(w, retryAfterDraining)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.detector() == nil:
		s.setRetryAfter(w, retryAfterNotReady)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no model loaded"})
	default:
		if msg := s.intakeNotReady(); msg != "" {
			s.setRetryAfter(w, retryAfterNotReady)
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": msg})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.cfg.ModelPath == "" {
		s.metrics.Errors.Add("bad_request", 1)
		writeJSON(w, http.StatusConflict, map[string]string{"error": "no model path configured"})
		return
	}
	if err := s.Reload(); err != nil {
		s.metrics.Errors.Add("internal", 1)
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	det := s.detector()
	writeJSON(w, http.StatusOK, map[string]any{
		"reloaded":    true,
		"algorithm":   string(det.Algorithm()),
		"feature_set": det.FeatureSet().String(),
	})
}

// StageMS is per-stage pipeline latency in milliseconds.
type StageMS struct {
	Extract   float64 `json:"extract"`
	Featurize float64 `json:"featurize"`
	Classify  float64 `json:"classify"`
}

func stageMS(tm core.Timings) *StageMS {
	return &StageMS{
		Extract:   float64(tm.ExtractNS) / 1e6,
		Featurize: float64(tm.FeaturizeNS) / 1e6,
		Classify:  float64(tm.ClassifyNS) / 1e6,
	}
}

// ScanResponse is the JSON body for one scanned document.
type ScanResponse struct {
	RequestID string `json:"request_id,omitempty"`
	// TraceID is the W3C trace this request joined (or was minted for);
	// the same ID appears in the response's traceparent header, the
	// access log and the audit event.
	TraceID    string           `json:"trace_id,omitempty"`
	File       string           `json:"file"`
	NoMacros   bool             `json:"no_macros,omitempty"`
	Report     *core.ReportJSON `json:"report,omitempty"`
	Error      string           `json:"error,omitempty"`
	ErrorClass string           `json:"error_class,omitempty"`
	Stages     *StageMS         `json:"stage_ms,omitempty"`
	// Cached marks a report served from the document verdict cache, or
	// collapsed into a concurrent identical scan (stage timings then
	// belong to the request that did the work, so stage_ms is omitted).
	Cached bool `json:"cached,omitempty"`
	// Backend is filled by the fleet gateway: the backend that produced
	// this verdict ("" when scanned directly on this daemon).
	Backend string `json:"backend,omitempty"`
	// SharedCache marks a verdict answered entirely from the gateway's
	// fleet-wide shared verdict tier — no backend was contacted.
	SharedCache bool    `json:"shared_cache,omitempty"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	// Trace is the per-document span tree, present only when the request
	// asked for it with ?trace=1.
	Trace *telemetry.Trace `json:"trace,omitempty"`
}

// BatchStats summarizes one batch request.
type BatchStats struct {
	Files       int64   `json:"files"`
	Macros      int64   `json:"macros"`
	Skipped     int64   `json:"skipped"`
	Errors      int64   `json:"errors"`
	WallMS      float64 `json:"wall_ms"`
	FilesPerSec float64 `json:"files_per_sec"`
}

// BatchResponse is the JSON body for /v1/scan/batch.
type BatchResponse struct {
	RequestID string         `json:"request_id"`
	Files     []ScanResponse `json:"files"`
	Stats     BatchStats     `json:"stats"`
}

// acquireSlot takes a semaphore slot, waiting up to QueueWait. It reports
// false (after writing the error response) when the server is saturated or
// the client went away. The wait is measured into its own histogram so
// admission-control queueing is visible separately from scan latency.
func (s *Server) acquireSlot(w http.ResponseWriter, r *http.Request) bool {
	wait := time.Now()
	s.metrics.QueueDepth.Add(1)
	defer func() {
		s.metrics.QueueDepth.Add(-1)
		s.metrics.QueueWait.Observe(time.Since(wait))
	}()
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-timer.C:
		s.metrics.Errors.Add("busy", 1)
		s.setRetryAfter(w, retryAfterNotReady)
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "server saturated, retry later"})
		return false
	case <-r.Context().Done():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "client canceled"})
		return false
	}
}

// readDocument pulls the document bytes out of the request: either the
// first file part of a multipart form, or the raw body. The body is capped
// at MaxBodyBytes either way.
func (s *Server) readDocument(w http.ResponseWriter, r *http.Request) (name string, data []byte, err error) {
	name = r.Header.Get("X-Filename")
	if name == "" {
		name = "document"
	}
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if strings.HasPrefix(ct, "multipart/") {
		r.Body = body
		if err := r.ParseMultipartForm(s.cfg.MaxBodyBytes); err != nil {
			return name, nil, err
		}
		for _, headers := range r.MultipartForm.File {
			for _, fh := range headers {
				f, err := fh.Open()
				if err != nil {
					return name, nil, err
				}
				data, err = io.ReadAll(f)
				f.Close()
				if err != nil {
					return name, nil, err
				}
				if fh.Filename != "" {
					name = fh.Filename
				}
				return name, data, nil
			}
		}
		return name, nil, errors.New("multipart form has no file part")
	}
	data, err = io.ReadAll(body)
	return name, data, err
}

// scanOutcome is what the scan goroutine hands back across the timeout
// boundary.
type scanOutcome struct {
	report *core.FileReport
	tm     core.Timings
	err    error
	// shared marks an outcome computed by a concurrent identical request
	// this one collapsed into.
	shared bool
}

// runScan executes one panic-isolated scan under the request deadline.
// The scan goroutine always runs to completion (CPU-bound work is not
// cancelable mid-document); on timeout the request returns early while
// the goroutine finishes in the background, still counted in-flight so
// shutdown drains it and still holding its semaphore slot so admission
// control reflects true load.
//
// When caching is enabled, concurrent requests for the same bytes collapse
// into one pipeline run through flight: the leader scans and populates the
// document cache, followers wait for its outcome while still holding their
// own admission slots (so admission control keeps reflecting queued
// demand). Errors and degraded reports are shared with the waiting
// followers but never cached — a later request re-runs the pipeline.
func (s *Server) runScan(ctx context.Context, det *core.Detector, data []byte,
	key cache.Key, docs *scan.DocCache, flight *cache.Flight[scanOutcome]) (scanOutcome, bool) {
	done := make(chan scanOutcome, 1)
	s.inflight.Add(1)
	go func() {
		defer s.inflight.Done()
		defer func() { <-s.sem }()
		defer s.metrics.InFlight.Add(-1)
		s.metrics.InFlight.Add(1)
		// scan.ScanOne already isolates pipeline panics; this second net
		// catches anything outside it so no request can kill the daemon.
		run := func() scanOutcome {
			var out scanOutcome
			func() {
				defer func() {
					if p := recover(); p != nil {
						out = scanOutcome{err: &scan.PanicError{Value: p, Stack: debug.Stack()}}
					}
				}()
				if s.scanGate != nil {
					s.scanGate()
				}
				out.report, out.tm, out.err = scan.ScanOneCtx(ctx, det, data)
			}()
			return out
		}
		var out scanOutcome
		if flight != nil {
			var leader bool
			out, _, leader = flight.Do(key, func() (scanOutcome, error) {
				o := run()
				if o.err == nil {
					docs.Put(key, o.report) // Put refuses degraded reports
				}
				return o, nil
			})
			out.shared = !leader
		} else {
			out = run()
		}
		done <- out
	}()
	select {
	case out := <-done:
		return out, true
	case <-ctx.Done():
		return scanOutcome{}, false
	}
}

// recordOutcome feeds one document's result into the metric tree and fills
// the response fields shared by the single and batch endpoints. A cached
// outcome (document-cache hit or collapsed request) still counts toward
// scans, macros and verdicts, but contributes no stage-latency samples —
// the request did no pipeline work of its own.
func (s *Server) recordOutcome(resp *ScanResponse, out scanOutcome, cached bool) {
	s.metrics.Scans.Add(1)
	if cached {
		resp.Cached = true
	} else {
		s.metrics.StageExtract.Observe(time.Duration(out.tm.ExtractNS))
		s.metrics.StageFeaturize.Observe(time.Duration(out.tm.FeaturizeNS))
		s.metrics.StageClassify.Observe(time.Duration(out.tm.ClassifyNS))
		resp.Stages = stageMS(out.tm)
	}
	if out.err != nil {
		if errors.Is(out.err, extract.ErrNoMacros) {
			s.metrics.Verdicts.Add("no_macros", 1)
			resp.NoMacros = true
			return
		}
		class := errorClass(out.err)
		s.metrics.Errors.Add(class, 1)
		if hostile.ExhaustsBudget(out.err) {
			s.metrics.Quarantined.Add(1)
			if name := hostile.LimitName(out.err); name != "" {
				s.metrics.LimitHits.Add(name, 1)
			}
		}
		resp.Error = out.err.Error()
		resp.ErrorClass = class
		return
	}
	s.metrics.Macros.Add(int64(len(out.report.Macros)))
	s.metrics.MacrosSkipped.Add(int64(out.report.Skipped))
	// Score distributions feed the drift monitor and the score histogram
	// regardless of cache state: drift watches the traffic the model
	// answers, and a cached verdict is still an answer.
	for _, m := range out.report.Macros {
		s.metrics.MacroScores.ObserveValue(m.Score)
		for _, ch := range m.Channels {
			s.observeDrift(ch.Channel, ch.Score)
		}
	}
	if out.report.Degraded {
		s.metrics.Degraded.Add(1)
		for _, se := range out.report.Errors {
			if name := hostile.LimitName(se.Err); name != "" {
				s.metrics.LimitHits.Add(name, 1)
			}
		}
	}
	if out.report.Obfuscated() {
		s.metrics.Verdicts.Add("obfuscated", 1)
	} else {
		s.metrics.Verdicts.Add("clean", 1)
	}
	resp.Report = out.report.JSON()
}

// errorClass buckets a scan failure for the errors metric: panic and
// internal faults first, then the hostile taxonomy class ("truncated",
// "malformed", "bomb", "limit", "cycle", "deadline"), then generic
// "parse" for legacy untyped failures.
func errorClass(err error) string {
	var pe *scan.PanicError
	switch {
	case errors.As(err, &pe):
		return "panic"
	case errors.Is(err, core.ErrNotTrained):
		return "internal"
	}
	if class := hostile.Classify(err); class != "" {
		return class
	}
	return "parse"
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	det, docs, flight := s.pipeline()
	if det == nil || s.draining.Load() {
		s.writeNotReady(w)
		return
	}
	name, data, err := s.readDocument(w, r)
	if err != nil {
		s.writeBodyError(w, err)
		return
	}
	// A document-cache hit is served before admission control: it costs
	// one hash and one lookup, so it should never queue behind scans.
	var key cache.Key
	if docs != nil {
		// Salted with the feature-set identity so a reload onto a different
		// channel layout can never serve entries written under the old one.
		key = cache.KeyOfSalted(det.FeatureSetID(), data)
		if report, ok := docs.Get(key); ok {
			resp := ScanResponse{RequestID: requestID(r.Context()),
				TraceID: traceContext(r.Context()).TraceID, File: name}
			s.recordOutcome(&resp, scanOutcome{report: report}, true)
			scan.LogAudit(s.cfg.Audit, scan.Document{Name: name, Data: data}, det.FeatureSet(),
				scan.Result{Name: name, Report: report, CacheHit: true,
					TraceID: traceContext(r.Context()).TraceID, RequestID: requestID(r.Context())})
			resp.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
			s.metrics.RequestLatency.Observe(time.Since(start))
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}
	if !s.acquireSlot(w, r) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ScanTimeout)
	defer cancel()
	var tr *telemetry.Tracer
	if r.URL.Query().Get("trace") == "1" {
		tr = telemetry.NewTracer(name)
		tr.SetTraceContext(traceContext(r.Context()))
		ctx = telemetry.ContextWithTracer(ctx, tr)
	}
	out, ok := s.runScan(ctx, det, data, key, docs, flight)
	resp := ScanResponse{RequestID: requestID(r.Context()),
		TraceID: traceContext(r.Context()).TraceID, File: name}
	if !ok {
		s.metrics.Errors.Add("timeout", 1)
		resp.Error = "scan deadline exceeded"
		resp.ErrorClass = "timeout"
		resp.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
		writeJSON(w, http.StatusGatewayTimeout, resp)
		return
	}
	if tr != nil {
		tr.Finish()
		resp.Trace = tr.Trace()
		s.recent.Add(resp.Trace)
	}
	s.recordOutcome(&resp, out, out.shared)
	scan.LogAudit(s.cfg.Audit, scan.Document{Name: name, Data: data}, det.FeatureSet(),
		scan.Result{Name: name, Report: out.report, Timings: out.tm, Err: out.err,
			Attempts: 1, Quarantined: out.err != nil && hostile.ExhaustsBudget(out.err),
			TraceID: traceContext(r.Context()).TraceID, RequestID: requestID(r.Context())})
	resp.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
	s.metrics.RequestLatency.Observe(time.Since(start))
	writeJSON(w, statusFor(&resp), resp)
}

// statusFor maps a scan outcome to its HTTP status. The hostile taxonomy
// maps onto client-fault statuses: malformed, truncated, cyclic and
// budget-breaching documents are 422 (the request was well-formed, the
// document is not processable), a deadline overrun inside the pipeline is
// 504, and only server faults (panic, untrained model) are 500. A degraded
// scan is a success — 200 with "degraded": true in the report.
func statusFor(resp *ScanResponse) int {
	switch resp.ErrorClass {
	case "":
		return http.StatusOK
	case "panic", "internal":
		return http.StatusInternalServerError
	case "deadline":
		return http.StatusGatewayTimeout
	default:
		return http.StatusUnprocessableEntity
	}
}

// writeBodyError distinguishes an oversized body (413) from a malformed
// request (400).
func (s *Server) writeBodyError(w http.ResponseWriter, err error) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		s.metrics.Errors.Add("oversize", 1)
		writeJSON(w, http.StatusRequestEntityTooLarge,
			map[string]string{"error": fmt.Sprintf("body exceeds %d byte limit", s.cfg.MaxBodyBytes)})
		return
	}
	s.metrics.Errors.Add("bad_request", 1)
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
}

func (s *Server) handleScanBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	det, dcache, _ := s.pipeline()
	if det == nil || s.draining.Load() {
		s.writeNotReady(w)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := r.ParseMultipartForm(s.cfg.MaxBodyBytes); err != nil {
		s.writeBodyError(w, err)
		return
	}
	var docs []scan.Document
	for _, headers := range r.MultipartForm.File {
		for _, fh := range headers {
			if len(docs) >= s.cfg.MaxBatchFiles {
				s.metrics.Errors.Add("bad_request", 1)
				writeJSON(w, http.StatusRequestEntityTooLarge,
					map[string]string{"error": fmt.Sprintf("batch exceeds %d file limit", s.cfg.MaxBatchFiles)})
				return
			}
			f, err := fh.Open()
			if err != nil {
				s.writeBodyError(w, err)
				return
			}
			data, err := io.ReadAll(f)
			f.Close()
			if err != nil {
				s.writeBodyError(w, err)
				return
			}
			docs = append(docs, scan.Document{Name: fh.Filename, Data: data})
		}
	}
	if len(docs) == 0 {
		s.metrics.Errors.Add("bad_request", 1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "multipart form has no file parts"})
		return
	}
	if !s.acquireSlot(w, r) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ScanTimeout)
	defer cancel()

	engine := scan.New(det, s.cfg.BatchWorkers)
	engine.SetAudit(s.cfg.Audit)
	engine.SetDocCache(dcache)
	var results []scan.Result
	var stats *scan.Stats
	done := make(chan error, 1)
	s.inflight.Add(1)
	go func() {
		defer s.inflight.Done()
		defer func() { <-s.sem }()
		defer s.metrics.InFlight.Add(-1)
		s.metrics.InFlight.Add(1)
		var err error
		func() {
			defer func() {
				if p := recover(); p != nil {
					err = &scan.PanicError{Value: p, Stack: debug.Stack()}
				}
			}()
			if s.scanGate != nil {
				s.scanGate()
			}
			results, stats, err = engine.ScanAll(ctx, docs)
		}()
		done <- err
	}()
	if err := <-done; err != nil {
		var pe *scan.PanicError
		if errors.As(err, &pe) {
			s.metrics.Errors.Add("panic", 1)
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		s.metrics.Errors.Add("timeout", 1)
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": "batch deadline exceeded"})
		return
	}

	resp := BatchResponse{
		RequestID: requestID(r.Context()),
		Files:     make([]ScanResponse, len(results)),
		Stats: BatchStats{
			Files:       stats.Files,
			Macros:      stats.Macros,
			Skipped:     stats.Skipped,
			Errors:      stats.Errors,
			WallMS:      float64(stats.WallNS) / 1e6,
			FilesPerSec: stats.FilesPerSec(),
		},
	}
	for i, res := range results {
		fr := ScanResponse{File: res.Name}
		s.recordOutcome(&fr, scanOutcome{report: res.Report, tm: res.Timings, err: res.Err}, res.CacheHit)
		resp.Files[i] = fr
	}
	s.metrics.RequestLatency.Observe(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// writeJSON writes v as the JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
