// Command vbadetectd is the long-running scan service: it loads a model
// trained with `vbadetect train` once and serves HTTP scan requests until
// stopped.
//
//	vbadetectd -model model.json -addr :8080
//
// Endpoints:
//
//	POST /v1/scan         classify one document (raw body or multipart);
//	                      append ?trace=1 for an inline per-document span tree
//	POST /v1/scan/batch   classify many documents (multipart)
//	POST /v1/submit       durable async intake (with -intake-dir): journal the
//	                      document crash-safely, return a ticket immediately
//	GET  /v1/tickets/{id} poll an async ticket for its published verdict
//	GET  /v1/model        loaded-model identity: model SHA-256, feature-set
//	                      name/ID, algorithm, channel layout, build info
//	GET  /v1/admin/intake/dead          list dead-lettered submissions
//	POST /v1/admin/intake/redrive/{id}  return a dead submission to the queue
//	POST /v1/admin/reload hot-swap the model from -model (also SIGHUP)
//	GET  /v1/admin/debug/bundle  tar.gz diagnostic snapshot: config, metrics,
//	                      health/SLO state, recent span trees, pprof profiles
//	GET  /healthz         liveness (includes intake queue depth when enabled,
//	                      plus the model-drift detail and rolling SLO readings)
//	GET  /readyz          readiness (503 while draining, modelless, the intake
//	                      journal volume is unwritable, or the intake backlog
//	                      is past -intake-backlog)
//	GET  /metrics         JSON counters and latency histograms;
//	                      ?format=prometheus for text exposition
//	GET  /debug/pprof/*   profiling (only with -pprof)
//
// SIGTERM/SIGINT starts a graceful shutdown: readiness flips to 503, new
// connections stop, and in-flight scans drain for up to -drain-timeout.
//
// Per-document resource budgets (hostile-input hardening) are set with the
// -limit-* flags, the verdict audit log with the -telemetry-audit-* flags,
// and the content-addressed verdict caches with -cache-entries /
// -cache-bytes. Each flag also reads a VBADETECTD_*
// environment variable as its default, so containerized deployments can
// tune them without changing the command line. Flags win over the
// environment; 0 means the built-in default.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/hostile"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// envInt64 returns the integer value of the named environment variable, or
// def when unset or unparsable. Used as flag defaults so env configures and
// flags override.
func envInt64(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

func envInt(name string, def int) int {
	return int(envInt64(name, int64(def)))
}

func envFloat(name string, def float64) float64 {
	if v := os.Getenv(name); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
	}
	return def
}

func envString(name, def string) string {
	if v := os.Getenv(name); v != "" {
		return v
	}
	return def
}

func envBool(name string, def bool) bool {
	if v := os.Getenv(name); v != "" {
		if b, err := strconv.ParseBool(v); err == nil {
			return b
		}
	}
	return def
}

func envDuration(name string, def time.Duration) time.Duration {
	if v := os.Getenv(name); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
	}
	return def
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vbadetectd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vbadetectd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	modelPath := fs.String("model", "model.json", "model file from `vbadetect train`")
	maxBody := fs.Int64("max-body", 32<<20, "max request body bytes")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrent scan requests (0 = 2×GOMAXPROCS)")
	queueWait := fs.Duration("queue-wait", 5*time.Second, "max wait for a scan slot before 429")
	scanTimeout := fs.Duration("scan-timeout", 30*time.Second, "per-request scan deadline")
	batchWorkers := fs.Int("batch-workers", 0, "scan.Engine workers per batch request (0 = GOMAXPROCS)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight scans on shutdown")
	enablePprof := fs.Bool("pprof", false, "expose /debug/pprof/")
	limDecomp := fs.Int64("limit-decompressed-bytes",
		envInt64("VBADETECTD_LIMIT_DECOMPRESSED_BYTES", 0),
		"per-document decompressed-output budget in bytes (0 = 256MiB default)")
	limDepth := fs.Int("limit-container-depth",
		envInt("VBADETECTD_LIMIT_CONTAINER_DEPTH", 0),
		"max nested container depth (0 = default 4)")
	limDir := fs.Int("limit-dir-entries",
		envInt("VBADETECTD_LIMIT_DIR_ENTRIES", 0),
		"max CFB directory entries walked per document (0 = default 16384)")
	limTokens := fs.Int64("limit-lex-tokens",
		envInt64("VBADETECTD_LIMIT_LEX_TOKENS", 0),
		"max VBA lexer tokens per macro (0 = default 4194304)")
	limMacro := fs.Int64("limit-macro-source-bytes",
		envInt64("VBADETECTD_LIMIT_MACRO_SOURCE_BYTES", 0),
		"max bytes of one macro's source (0 = default 16MiB)")
	limStrings := fs.Int("limit-storage-strings",
		envInt("VBADETECTD_LIMIT_STORAGE_STRINGS", 0),
		"max storage strings recovered per document (0 = default 10000)")
	limArchive := fs.Int("limit-archive-entries",
		envInt("VBADETECTD_LIMIT_ARCHIVE_ENTRIES", 0),
		"max archive entries visited by the container walker per submission (0 = default 4096)")
	auditOut := fs.String("telemetry-audit-out",
		envString("VBADETECTD_TELEMETRY_AUDIT_OUT", ""),
		"write verdict audit events as JSONL to this file (empty = disabled)")
	auditSample := fs.Float64("telemetry-audit-sample",
		envFloat("VBADETECTD_TELEMETRY_AUDIT_SAMPLE", 1),
		"audit sampling rate in [0,1], keyed on document hash")
	auditRate := fs.Int("telemetry-audit-rate",
		envInt("VBADETECTD_TELEMETRY_AUDIT_RATE", 0),
		"max audit events written per second (0 = unlimited)")
	auditMaxBytes := fs.Int64("telemetry-audit-max-bytes",
		envInt64("VBADETECTD_TELEMETRY_AUDIT_MAX_BYTES", 0),
		"lifetime audit log byte cap (0 = unlimited)")
	cacheEntries := fs.Int("cache-entries",
		envInt("VBADETECTD_CACHE_ENTRIES", 0),
		"verdict cache entry capacity (0 = default 4096, negative = disable caching and request collapsing)")
	cacheBytes := fs.Int64("cache-bytes",
		envInt64("VBADETECTD_CACHE_BYTES", 0),
		"verdict cache byte budget (0 = default 256MiB, negative = bound by entries alone)")
	intakeDir := fs.String("intake-dir",
		envString("VBADETECTD_INTAKE_DIR", ""),
		"enable durable async intake (/v1/submit): journal directory for the crash-safe work queue and published results (empty = disabled)")
	intakeWorkers := fs.Int("intake-workers",
		envInt("VBADETECTD_INTAKE_WORKERS", 0),
		"async intake drain workers (0 = default 2, negative = accept-only)")
	intakeBacklog := fs.Int("intake-backlog",
		envInt("VBADETECTD_INTAKE_BACKLOG", 0),
		"fail /readyz when the intake queue depth exceeds this (0 = default 1024)")
	intakeVisibility := fs.Duration("intake-visibility-timeout",
		envDuration("VBADETECTD_INTAKE_VISIBILITY_TIMEOUT", 0),
		"redeliver a dequeued submission not acknowledged within this (0 = default 60s)")
	intakeMaxAttempts := fs.Int("intake-max-attempts",
		envInt("VBADETECTD_INTAKE_MAX_ATTEMPTS", 0),
		"deliveries before a failing submission is dead-lettered (0 = default 5)")
	intakeRetryBackoff := fs.Duration("intake-retry-backoff",
		envDuration("VBADETECTD_INTAKE_RETRY_BACKOFF", 0),
		"delay before the first redelivery, doubling per attempt (0 = default 1s)")
	intakeWebhooks := fs.Bool("intake-webhooks",
		envBool("VBADETECTD_INTAKE_WEBHOOKS", false),
		"allow async submissions to register a completion webhook (outbound POSTs; off by default)")
	driftWarnPSI := fs.Float64("drift-warn-psi",
		envFloat("VBADETECTD_DRIFT_WARN_PSI", 0),
		"per-channel PSI above which /healthz reports drift as warn (0 = default 0.2, negative = disable drift monitoring)")
	driftWindow := fs.Int("drift-window",
		envInt("VBADETECTD_DRIFT_WINDOW", 0),
		"rolling production-score window per channel in observations (0 = default 4096)")
	sloAvail := fs.Float64("slo-availability-target",
		envFloat("VBADETECTD_SLO_AVAILABILITY_TARGET", 0),
		"availability objective for the /v1/ API burn-rate gauges (0 = default 0.999)")
	sloLatency := fs.Float64("slo-latency-target",
		envFloat("VBADETECTD_SLO_LATENCY_TARGET", 0),
		"latency objective: fraction of /v1/ requests answered within -slo-latency-threshold (0 = default 0.99)")
	sloThreshold := fs.Duration("slo-latency-threshold",
		envDuration("VBADETECTD_SLO_LATENCY_THRESHOLD", 0),
		"latency threshold backing the latency SLO (0 = default 500ms)")
	debugTraces := fs.Int("debug-trace-buffer",
		envInt("VBADETECTD_DEBUG_TRACE_BUFFER", 0),
		"recent span trees retained for the debug bundle (0 = default 64)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	var audit *telemetry.AuditLogger
	if *auditOut != "" {
		f, err := os.OpenFile(*auditOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening audit log: %w", err)
		}
		defer f.Close()
		audit = telemetry.NewAuditLogger(f, telemetry.AuditConfig{
			SampleRate: *auditSample,
			MaxPerSec:  *auditRate,
			MaxBytes:   *auditMaxBytes,
		})
	}
	srv, err := server.NewFromModelFile(*modelPath, server.Config{
		MaxBodyBytes:          *maxBody,
		MaxInFlight:           *maxInFlight,
		QueueWait:             *queueWait,
		ScanTimeout:           *scanTimeout,
		BatchWorkers:          *batchWorkers,
		EnablePprof:           *enablePprof,
		Logger:                logger,
		Audit:                 audit,
		CacheEntries:          *cacheEntries,
		CacheBytes:            *cacheBytes,
		DriftWarnPSI:          *driftWarnPSI,
		DriftWindow:           *driftWindow,
		SLOAvailabilityTarget: *sloAvail,
		SLOLatencyTarget:      *sloLatency,
		SLOLatencyThreshold:   *sloThreshold,
		DebugTraceBuffer:      *debugTraces,
		Limits: hostile.Limits{
			MaxDecompressedBytes: *limDecomp,
			MaxContainerDepth:    *limDepth,
			MaxDirEntries:        *limDir,
			MaxLexTokens:         *limTokens,
			MaxMacroSourceBytes:  *limMacro,
			MaxStorageStrings:    *limStrings,
			MaxArchiveEntries:    *limArchive,
		},
		Intake: server.IntakeConfig{
			Dir:               *intakeDir,
			Workers:           *intakeWorkers,
			BacklogWatermark:  *intakeBacklog,
			VisibilityTimeout: *intakeVisibility,
			MaxAttempts:       *intakeMaxAttempts,
			RetryBackoff:      *intakeRetryBackoff,
			AllowWebhooks:     *intakeWebhooks,
		},
	})
	if err != nil {
		return err
	}
	if err := srv.StartIntake(); err != nil {
		return fmt.Errorf("starting intake: %w", err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// SIGHUP hot-reloads the model without dropping requests.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := srv.Reload(); err != nil {
				logger.Error("reload failed", "error", err)
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "model", *modelPath)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down, draining in-flight scans", "timeout", drainTimeout.String())
	srv.BeginShutdown()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// Shutdown waited for open connections; Drain additionally waits for
	// scans whose requester timed out but whose goroutine is still running.
	if err := srv.Drain(drainCtx); err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("drain: %w", err)
	}
	if err := srv.Close(); err != nil {
		logger.Error("closing server", "error", err)
	}
	logger.Info("drained, exiting")
	return nil
}
