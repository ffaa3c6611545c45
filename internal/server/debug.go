// The debug bundle: GET /v1/admin/debug/bundle streams a tar.gz
// snapshot of everything an operator wants attached to an incident
// ticket — effective config, both metric expositions, health and SLO
// state, intake/queue statistics, the most recent span trees (raw and as
// a Chrome trace), and pprof profiles. One curl replaces the usual
// "please also send /metrics, /healthz, a goroutine dump, ..." loop.
package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// traceRing retains the most recent finished span trees for the debug
// bundle. Fixed capacity, overwrite-oldest, safe for concurrent use.
type traceRing struct {
	mu   sync.Mutex
	buf  []*telemetry.Trace
	next int
	full bool
}

// newTraceRing builds a ring holding up to max traces (min 1).
func newTraceRing(max int) *traceRing {
	if max < 1 {
		max = 1
	}
	return &traceRing{buf: make([]*telemetry.Trace, max)}
}

// Add records one finished trace, evicting the oldest at capacity. Safe
// on a nil ring or a nil trace.
func (r *traceRing) Add(t *telemetry.Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
}

// Snapshot returns the retained traces, oldest first.
func (r *traceRing) Snapshot() []*telemetry.Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*telemetry.Trace
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// handleDebugBundle streams the diagnostic archive. Every entry is
// best-effort: a failing section is replaced by an error note instead of
// aborting the download.
func (s *Server) handleDebugBundle(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition", `attachment; filename="vbadetect-debug.tar.gz"`)
	now := time.Now()
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	add := func(name string, body []byte) {
		hdr := &tar.Header{
			Name:    "vbadetect-debug/" + name,
			Mode:    0o644,
			Size:    int64(len(body)),
			ModTime: now,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return
		}
		_, _ = tw.Write(body)
	}
	addJSON := func(name string, v any) {
		body, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			add(name, []byte(fmt.Sprintf("marshal failed: %v\n", err)))
			return
		}
		add(name, append(body, '\n'))
	}

	addJSON("config.json", s.configView())
	addJSON("health.json", s.healthBody())
	if s.slo != nil {
		addJSON("slo.json", map[string]any{
			"5m": s.slo.Read(telemetry.SLOShortWindow),
			"1h": s.slo.Read(telemetry.SLOLongWindow),
		})
	}
	if s.intake != nil {
		addJSON("intake.json", s.intake.q.Stats())
	}

	var buf bytes.Buffer
	_ = s.metrics.Registry().WriteJSON(&buf)
	add("metrics.json", append([]byte(nil), buf.Bytes()...))
	buf.Reset()
	_ = s.metrics.Registry().WritePrometheus(&buf)
	add("metrics.prom", append([]byte(nil), buf.Bytes()...))

	traces := s.recent.Snapshot()
	addJSON("traces.json", traces)
	buf.Reset()
	_ = telemetry.WriteChromeTrace(&buf, traces)
	add("traces.chrome.json", append([]byte(nil), buf.Bytes()...))

	// Goroutines as readable text; heap/allocs in the binary format the
	// pprof tool expects.
	for _, p := range []struct {
		name    string
		profile string
		debug   int
	}{
		{"pprof/goroutine.txt", "goroutine", 1},
		{"pprof/heap.pprof", "heap", 0},
		{"pprof/allocs.pprof", "allocs", 0},
	} {
		prof := pprof.Lookup(p.profile)
		if prof == nil {
			continue
		}
		buf.Reset()
		if err := prof.WriteTo(&buf, p.debug); err != nil {
			add(p.name, []byte(fmt.Sprintf("profile failed: %v\n", err)))
			continue
		}
		add(p.name, append([]byte(nil), buf.Bytes()...))
	}

	_ = tw.Close()
	_ = gz.Close()
}

// configView is the effective configuration as it lands in the bundle —
// plain values only (loggers, audit sinks and such don't serialize).
func (s *Server) configView() map[string]any {
	c := s.cfg
	return map[string]any{
		"model_path":              c.ModelPath,
		"max_body_bytes":          c.MaxBodyBytes,
		"max_in_flight":           c.MaxInFlight,
		"queue_wait":              c.QueueWait.String(),
		"scan_timeout":            c.ScanTimeout.String(),
		"batch_workers":           c.BatchWorkers,
		"max_batch_files":         c.MaxBatchFiles,
		"cache_entries":           c.CacheEntries,
		"cache_bytes":             c.CacheBytes,
		"drift_warn_psi":          c.DriftWarnPSI,
		"drift_window":            c.DriftWindow,
		"slo_availability_target": c.SLOAvailabilityTarget,
		"slo_latency_target":      c.SLOLatencyTarget,
		"slo_latency_threshold":   c.SLOLatencyThreshold.String(),
		"debug_trace_buffer":      c.DebugTraceBuffer,
		"intake_dir":              c.Intake.Dir,
		"intake_workers":          c.Intake.Workers,
	}
}
