// Metrics for the scan daemon, built on the shared telemetry registry so
// every counter is safe for concurrent writes from request handlers and
// renders as both JSON and Prometheus text exposition. Nothing here
// registers in a global namespace: each Server owns its own registry, so
// tests can run many servers in one process.
package server

import (
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// Metrics is one server's observability tree, a facade over a
// telemetry.Registry. GET /metrics renders the registry as JSON by
// default and as Prometheus text exposition with ?format=prometheus.
type Metrics struct {
	reg *telemetry.Registry

	// Requests counts HTTP requests by endpoint pattern.
	Requests *telemetry.LabeledCounter
	// Responses counts HTTP responses by status class ("2xx".."5xx").
	Responses *telemetry.LabeledCounter
	// InFlight is the number of scan requests currently holding a slot.
	InFlight *telemetry.Gauge
	// QueueDepth is the number of requests waiting for a slot.
	QueueDepth *telemetry.Gauge

	// Scans counts documents scanned (batch items count individually).
	Scans *telemetry.Counter
	// Macros counts significant macros classified.
	Macros *telemetry.Counter
	// MacrosSkipped counts macros below the significance threshold.
	MacrosSkipped *telemetry.Counter
	// Verdicts counts file-level outcomes: "obfuscated", "clean",
	// "no_macros".
	Verdicts *telemetry.LabeledCounter
	// Errors counts failures by class: "parse", "panic", "timeout",
	// "oversize", "busy", "bad_request", "internal", plus the hostile
	// taxonomy classes ("truncated", "malformed", "bomb", "limit",
	// "cycle", "deadline").
	Errors *telemetry.LabeledCounter
	// Degraded counts documents scanned partially: corruption or resource
	// limits cost some streams but surviving macros were still classified.
	Degraded *telemetry.Counter
	// Quarantined counts documents whose scan failure exhausted the
	// resource budget (decompression bombs, deadline overruns) — inputs
	// that warrant isolation, not retries.
	Quarantined *telemetry.Counter
	// LimitHits counts budget-limit breaches by limit name
	// ("decompressed_bytes", "deadline", ...), across both degraded and
	// quarantined documents.
	LimitHits *telemetry.LabeledCounter
	// Reloads counts successful model hot-reloads.
	Reloads *telemetry.Counter

	// Per-stage pipeline latency (extract → featurize → classify), the
	// time requests spend waiting for an admission slot, and whole-request
	// latency for the scan endpoints. All in seconds.
	StageExtract   *telemetry.Histogram
	StageFeaturize *telemetry.Histogram
	StageClassify  *telemetry.Histogram
	QueueWait      *telemetry.Histogram
	RequestLatency *telemetry.Histogram

	// MacroScores is the production classifier-score distribution (a value
	// histogram over [0,1]) — the raw material the drift monitor compares
	// against the model's train-time baselines.
	MacroScores *telemetry.Histogram

	start time.Time
}

// NewMetrics builds an initialized, unregistered metric tree.
func NewMetrics() *Metrics {
	r := telemetry.NewRegistry()
	m := &Metrics{reg: r, start: time.Now()}
	r.GaugeFunc("uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(m.start).Seconds() })
	m.Requests = r.LabeledCounter("requests", "HTTP requests by endpoint.", "endpoint")
	m.Responses = r.LabeledCounter("responses", "HTTP responses by status class.", "class")
	m.InFlight = r.Gauge("inflight", "Scan requests currently holding a slot.")
	m.QueueDepth = r.Gauge("queue_depth", "Requests waiting for an admission slot.")
	m.Scans = r.Counter("scans", "Documents scanned.")
	m.Macros = r.Counter("macros", "Significant macros classified.")
	m.MacrosSkipped = r.Counter("macros_skipped", "Macros below the significance threshold.")
	m.Verdicts = r.LabeledCounter("verdicts", "File-level scan outcomes.", "verdict")
	m.Errors = r.LabeledCounter("errors", "Scan and request failures by class.", "class")
	m.Degraded = r.Counter("degraded", "Documents scanned partially.")
	m.Quarantined = r.Counter("quarantined", "Documents whose failure exhausted the resource budget.")
	m.LimitHits = r.LabeledCounter("limit_hits", "Budget-limit breaches by limit name.", "limit")
	m.Reloads = r.Counter("model_reloads", "Successful model hot-reloads.")
	m.StageExtract = r.Histogram("stage_extract_seconds", "Extraction stage latency.", nil)
	m.StageFeaturize = r.Histogram("stage_featurize_seconds", "Featurization stage latency.", nil)
	m.StageClassify = r.Histogram("stage_classify_seconds", "Classification stage latency.", nil)
	m.QueueWait = r.Histogram("queue_wait_seconds", "Time requests wait for an admission slot.", nil)
	m.RequestLatency = r.Histogram("request_seconds", "Whole-request latency for scan endpoints.", nil)
	m.MacroScores = r.Histogram("macro_score",
		"Classifier decision scores of scanned macros.",
		[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1})
	r.GaugeFunc("scan_files_per_sec", "Documents scanned per second since start.",
		func() float64 { return rateSince(m.Scans.Value(), m.start) })
	r.GaugeFunc("scan_macros_per_sec", "Macros classified per second since start.",
		func() float64 { return rateSince(m.Macros.Value(), m.start) })
	r.RegisterGoRuntime()
	return m
}

func rateSince(n int64, start time.Time) float64 {
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed
}

// Registry exposes the underlying telemetry registry so callers can
// attach additional instruments (scan-engine gauges, build info).
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

// ServeHTTP renders the metric tree: Prometheus text exposition when the
// request asks for ?format=prometheus, JSON otherwise.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", telemetry.ExpositionContentType)
		_ = m.reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = m.reg.WriteJSON(w)
}

// observeStatus records a response status code by class.
func (m *Metrics) observeStatus(code int) {
	m.Responses.Add(statusClass(code), 1)
}

func statusClass(code int) string {
	switch code / 100 {
	case 1:
		return "1xx"
	case 2:
		return "2xx"
	case 3:
		return "3xx"
	case 4:
		return "4xx"
	default:
		return "5xx"
	}
}
