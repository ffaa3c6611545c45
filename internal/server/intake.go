// Durable async intake: POST /v1/submit journals a document into a
// crash-safe work queue and returns a ticket immediately; background
// workers drain the queue through the recursive container walker and the
// scan pipeline, publish each verdict exactly once into a results
// directory, and optionally POST it to a caller-supplied webhook.
//
// The durability contract is at-least-once processing with exactly-once
// publication: an accepted submission survives SIGKILL (the queue fsyncs
// enqueues before acknowledging), a crashed worker's job is redelivered
// after its visibility timeout, and the atomic link into the results
// directory guarantees a redelivered job can never publish a second
// verdict or fire a second webhook. Jobs that keep failing are
// dead-lettered — listable and redrivable via the admin endpoints —
// rather than poisoning workers forever.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hostile"
	"repro/internal/queue"
	"repro/internal/scan"
	"repro/internal/telemetry"
)

// IntakeConfig tunes the durable async intake path. Async intake is
// activated by calling Server.StartIntake with a non-empty Dir before
// building the handler.
type IntakeConfig struct {
	// Dir is the intake state directory: the write-ahead journal lives
	// under Dir/queue and published verdicts under Dir/results. Empty
	// disables async intake entirely.
	Dir string
	// Workers is the number of queue-draining scan workers. 0 means 2;
	// negative means accept-only — submissions are journaled but drained
	// by another process or a later restart (tests, staged rollouts).
	Workers int
	// BacklogWatermark fails /readyz once the queue depth exceeds it,
	// taking the node out of rotation before the backlog (and the journal
	// volume behind it) grows without bound. 0 means 1024.
	BacklogWatermark int
	// VisibilityTimeout is how long a dequeued job may go unacknowledged
	// before it is redelivered to another worker. 0 means 60s.
	VisibilityTimeout time.Duration
	// MaxAttempts is the delivery budget before a job is dead-lettered.
	// 0 means 5.
	MaxAttempts int
	// RetryBackoff is the delay before the first redelivery of a failed
	// job, doubling per attempt. 0 means 1s.
	RetryBackoff time.Duration
	// AllowWebhooks permits submissions to register a completion webhook
	// (?webhook= or X-Webhook-URL). Off by default: a daemon POSTing to
	// caller-controlled URLs is request-forgery surface that deployments
	// must opt into.
	AllowWebhooks bool
	// WebhookTimeout caps one webhook delivery attempt. 0 means 10s.
	WebhookTimeout time.Duration
	// NoSync disables the enqueue fsync (tests only — accepted work can
	// then be lost to a crash).
	NoSync bool
}

func (c IntakeConfig) withDefaults() IntakeConfig {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.BacklogWatermark <= 0 {
		c.BacklogWatermark = 1024
	}
	if c.WebhookTimeout <= 0 {
		c.WebhookTimeout = 10 * time.Second
	}
	return c
}

// SubmitResponse is the 202 body for an accepted async submission.
type SubmitResponse struct {
	// Ticket identifies the submission; poll /v1/tickets/{ticket}.
	Ticket string `json:"ticket"`
	// Status is "queued" on acceptance.
	Status string `json:"status"`
	// Poll is the ticket's polling URL path.
	Poll string `json:"poll"`
}

// TicketStatus is the poll body while a ticket is still unresolved (once
// resolved, the poll returns the TicketResult instead).
type TicketStatus struct {
	Ticket string `json:"ticket"`
	// Status is "queued", "scanning" or "dead".
	Status string `json:"status"`
	// Error is the dead-letter reason when Status is "dead".
	Error string `json:"error,omitempty"`
	// Attempts is the delivery count for a dead ticket.
	Attempts int `json:"attempts,omitempty"`
}

// TicketResult is the published verdict for one async submission: one
// entry per document the container walker discovered inside it, each with
// its container provenance.
type TicketResult struct {
	Ticket string `json:"ticket"`
	File   string `json:"file"`
	// Status is "done" (documents were scanned, possibly degraded) or
	// "failed" (the whole submission was rejected with a typed error).
	Status string `json:"status"`
	// Degraded marks a partial result: some nested children were lost to
	// corruption or budget limits, or some reports are partial.
	Degraded bool `json:"degraded,omitempty"`
	// Docs holds one outcome per discovered document; File carries the
	// "!"-joined container path for nested documents.
	Docs []ScanResponse `json:"docs,omitempty"`
	// Error and ErrorClass describe a whole-submission failure ("bomb",
	// "malformed", ...) when Status is "failed".
	Error      string `json:"error,omitempty"`
	ErrorClass string `json:"error_class,omitempty"`
	// Attempt is which delivery of the job produced this result.
	Attempt int `json:"attempt"`
	// RequestID echoes the submitting request's X-Request-ID; TraceID is
	// the distributed trace the submission rode in on (stable across
	// redeliveries — the traceparent is journaled with the job).
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	// QueueMS is the enqueue→dequeue latency; ElapsedMS the worker's
	// processing time.
	QueueMS   float64 `json:"queue_ms"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Trace is the worker-side span tree (queue wait, scan), present only
	// when the submission asked for it with ?trace=1.
	Trace *telemetry.Trace `json:"trace,omitempty"`
}

// DeadTicketJSON is one dead-lettered submission in the admin listing.
type DeadTicketJSON struct {
	Ticket   string    `json:"ticket"`
	File     string    `json:"file"`
	Reason   string    `json:"reason"`
	Attempts int       `json:"attempts"`
	DeadAt   time.Time `json:"dead_at"`
}

// jobMeta is the opaque blob riding with each queued job.
type jobMeta struct {
	Webhook string `json:"webhook,omitempty"`
	Trace   bool   `json:"trace,omitempty"`
	// RequestID is the submitting HTTP request's ID, carried so the
	// published result and the completion webhook can echo it.
	RequestID string `json:"request_id,omitempty"`
}

// intake owns the async path: the durable queue, the results directory,
// the drain workers and the webhook client.
type intake struct {
	s          *Server
	cfg        IntakeConfig
	q          *queue.Queue
	resultsDir string
	client     *http.Client
	cancel     context.CancelFunc
	wg         sync.WaitGroup
	stopOnce   sync.Once

	published       *telemetry.Counter
	webhookFailures *telemetry.Counter
}

// StartIntake opens the durable intake queue configured in Config.Intake
// and starts its drain workers. A no-op when no intake directory is
// configured. Must be called before Handler so the intake routes are
// registered; Close stops the workers and closes the journal.
func (s *Server) StartIntake() error {
	cfg := s.cfg.Intake
	if cfg.Dir == "" {
		return nil
	}
	if s.intake != nil {
		return errors.New("server: intake already started")
	}
	cfg = cfg.withDefaults()
	resultsDir := filepath.Join(cfg.Dir, "results")
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return fmt.Errorf("server: intake: %w", err)
	}
	q, err := queue.Open(filepath.Join(cfg.Dir, "queue"), queue.Options{
		VisibilityTimeout: cfg.VisibilityTimeout,
		MaxAttempts:       cfg.MaxAttempts,
		RetryBackoff:      cfg.RetryBackoff,
		NoSync:            cfg.NoSync,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	in := &intake{
		s:          s,
		cfg:        cfg,
		q:          q,
		resultsDir: resultsDir,
		client:     &http.Client{Timeout: cfg.WebhookTimeout},
		cancel:     cancel,
	}
	in.registerMetrics(s.metrics.Registry())
	s.intake = in
	for i := 0; i < cfg.Workers; i++ {
		in.wg.Add(1)
		go in.worker(ctx)
	}
	if st := q.Stats(); st.Depth > 0 || st.Dead > 0 || st.CorruptRecords > 0 {
		s.log.Info("intake journal replayed",
			"depth", st.Depth, "dead", st.Dead, "corrupt_records", st.CorruptRecords)
	}
	return nil
}

// stopIntake cancels the workers, waits for in-flight jobs and closes the
// journal. Idempotent; a no-op when intake was never started.
func (s *Server) stopIntake() {
	in := s.intake
	if in == nil {
		return
	}
	in.stopOnce.Do(func() {
		in.cancel()
		in.wg.Wait()
		_ = in.q.Close()
	})
}

// intakeNotReady reports why the intake path should fail readiness, or ""
// when it is healthy (or not configured): an unwritable journal volume
// means accepts would start failing, and a backlog past the watermark
// means this node should shed load until its workers catch up.
func (s *Server) intakeNotReady() string {
	in := s.intake
	if in == nil {
		return ""
	}
	if err := in.q.Healthy(); err != nil {
		return "intake journal unwritable: " + err.Error()
	}
	if depth := in.q.Stats().Depth; depth > in.cfg.BacklogWatermark {
		return fmt.Sprintf("intake backlog %d exceeds watermark %d", depth, in.cfg.BacklogWatermark)
	}
	return ""
}

// registerMetrics publishes the queue's depth/age/redelivery/dead-letter
// state on the server's telemetry registry.
func (in *intake) registerMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("intake_depth", "Accepted submissions waiting for a scan worker.",
		func() float64 { return float64(in.q.Stats().Depth) })
	reg.GaugeFunc("intake_inflight", "Submissions currently held by a worker.",
		func() float64 { return float64(in.q.Stats().InFlight) })
	reg.GaugeFunc("intake_dead", "Dead-lettered submissions awaiting operator redrive.",
		func() float64 { return float64(in.q.Stats().Dead) })
	reg.GaugeFunc("intake_oldest_age_seconds", "Age of the oldest waiting submission.",
		func() float64 { return in.q.Stats().OldestAge.Seconds() })
	reg.GaugeFunc("intake_journal_segments", "Journal segment files on disk.",
		func() float64 { return float64(in.q.Stats().Segments) })
	reg.CounterFunc("intake_enqueued", "Submissions accepted into the intake queue.",
		func() int64 { return in.q.Stats().Enqueued })
	reg.CounterFunc("intake_acked", "Submissions fully processed and acknowledged.",
		func() int64 { return in.q.Stats().Acked })
	reg.CounterFunc("intake_redelivered", "Submissions redelivered after a lost or failed attempt.",
		func() int64 { return in.q.Stats().Redelivered })
	reg.CounterFunc("intake_dead_lettered", "Submissions dead-lettered after exhausting their delivery budget.",
		func() int64 { return in.q.Stats().DeadLettered })
	reg.CounterFunc("intake_journal_corrupt_records", "Journal records skipped during replay for framing or checksum damage.",
		func() int64 { return in.q.Stats().CorruptRecords })
	in.published = reg.Counter("intake_published", "Verdicts published to the results directory.")
	in.webhookFailures = reg.Counter("intake_webhook_failures", "Completion webhooks that could not be delivered.")
}

func (in *intake) resultPath(id uint64) string {
	return filepath.Join(in.resultsDir, strconv.FormatUint(id, 10)+".json")
}

// handleSubmit accepts one document into the durable queue and returns a
// ticket. The enqueue is fsynced before the 202, so an accepted
// submission survives any crash after the response.
func (in *intake) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s := in.s
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining"})
		return
	}
	name, data, err := s.readDocument(w, r)
	if err != nil {
		s.writeBodyError(w, err)
		return
	}
	if len(data) == 0 {
		s.metrics.Errors.Add("bad_request", 1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "empty document"})
		return
	}
	meta := jobMeta{
		Trace:     r.URL.Query().Get("trace") == "1",
		RequestID: requestID(r.Context()),
	}
	meta.Webhook = r.URL.Query().Get("webhook")
	if meta.Webhook == "" {
		meta.Webhook = r.Header.Get("X-Webhook-URL")
	}
	if meta.Webhook != "" {
		if !in.cfg.AllowWebhooks {
			s.metrics.Errors.Add("bad_request", 1)
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "webhooks are not enabled on this server"})
			return
		}
		u, err := url.Parse(meta.Webhook)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			s.metrics.Errors.Add("bad_request", 1)
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid webhook URL"})
			return
		}
	}
	var metaBlob []byte
	if meta != (jobMeta{}) {
		metaBlob, _ = json.Marshal(meta)
	}
	// The journaled traceparent carries the submit request's own span, so
	// the worker's span tree stitches under this request — across a crash
	// and a redelivery, even in a different process.
	id, err := in.q.EnqueueTraced(name, metaBlob, data, traceContext(r.Context()).Traceparent())
	if err != nil {
		s.metrics.Errors.Add("intake", 1)
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": "intake unavailable: " + err.Error()})
		return
	}
	ticket := strconv.FormatUint(id, 10)
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		Ticket: ticket,
		Status: "queued",
		Poll:   "/v1/tickets/" + ticket,
	})
}

// handleTicket polls one ticket: the published result once the job
// completed, a status body while it is queued, scanning or dead.
func (in *intake) handleTicket(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		in.s.metrics.Errors.Add("bad_request", 1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed ticket"})
		return
	}
	if in.serveResult(w, id) {
		return
	}
	ticket := strconv.FormatUint(id, 10)
	switch in.q.Status(id) {
	case queue.StatusPending:
		writeJSON(w, http.StatusOK, TicketStatus{Ticket: ticket, Status: "queued"})
	case queue.StatusInFlight:
		writeJSON(w, http.StatusOK, TicketStatus{Ticket: ticket, Status: "scanning"})
	case queue.StatusDead:
		st := TicketStatus{Ticket: ticket, Status: "dead"}
		for _, dj := range in.q.DeadLetters() {
			if dj.ID == id {
				st.Error, st.Attempts = dj.Reason, dj.Attempts
				break
			}
		}
		writeJSON(w, http.StatusOK, st)
	default:
		// Publish precedes ack, so a job that completed between the result
		// probe and the status check has a result file now — re-probe
		// before declaring the ticket unknown.
		if in.serveResult(w, id) {
			return
		}
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown ticket"})
	}
}

// serveResult writes the published result for id, if one exists.
func (in *intake) serveResult(w http.ResponseWriter, id uint64) bool {
	data, err := os.ReadFile(in.resultPath(id))
	if err != nil {
		return false
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
	return true
}

// handleDeadLetters lists dead-lettered submissions for operators.
func (in *intake) handleDeadLetters(w http.ResponseWriter, r *http.Request) {
	djs := in.q.DeadLetters()
	out := make([]DeadTicketJSON, len(djs))
	for i, dj := range djs {
		out[i] = DeadTicketJSON{
			Ticket:   strconv.FormatUint(dj.ID, 10),
			File:     dj.Name,
			Reason:   dj.Reason,
			Attempts: dj.Attempts,
			DeadAt:   dj.DeadAt,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"dead": out})
}

// handleRedrive returns one dead-lettered submission to the ready queue
// with a fresh delivery budget.
func (in *intake) handleRedrive(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		in.s.metrics.Errors.Add("bad_request", 1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed ticket"})
		return
	}
	switch err := in.q.Redrive(id); {
	case errors.Is(err, queue.ErrNotFound):
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such dead ticket"})
	case err != nil:
		in.s.metrics.Errors.Add("intake", 1)
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusOK, TicketStatus{Ticket: strconv.FormatUint(id, 10), Status: "queued"})
	}
}

// worker drains the queue until the intake context is canceled. A job
// being processed when shutdown starts is finished (bounded by the scan
// timeout) rather than abandoned mid-flight.
func (in *intake) worker(ctx context.Context) {
	defer in.wg.Done()
	for {
		d, err := in.q.Receive(ctx)
		if err != nil {
			return // queue closed or shutdown
		}
		in.process(context.WithoutCancel(ctx), d)
	}
}

// process runs one delivered submission end to end: dedup against an
// already-published result, walk + scan, publish, webhook, ack.
func (in *intake) process(ctx context.Context, d *queue.Delivery) {
	s := in.s
	start := time.Now()
	ticket := strconv.FormatUint(d.ID, 10)

	// A redelivered job whose verdict already reached disk (crash or
	// stall between publish and ack) is complete: just ack it. This is
	// the at-least-once edge the publish-side dedup absorbs.
	if _, err := os.Stat(in.resultPath(d.ID)); err == nil {
		_ = d.Ack()
		return
	}

	var meta jobMeta
	if len(d.Meta) > 0 {
		_ = json.Unmarshal(d.Meta, &meta)
	}
	queueWait := start.Sub(d.EnqueuedAt)
	tr := telemetry.NewTracer(d.Name)
	// Rejoin the submission's trace from the journaled traceparent: the
	// worker span parents under the original submit request no matter
	// which process or delivery attempt runs the job.
	if tc, err := telemetry.ParseTraceparent(d.Trace); err == nil {
		tr.SetTraceContext(tc)
	}
	root := tr.Root()
	root.Annotate("ticket", ticket)
	root.Annotate("attempt", strconv.Itoa(d.Attempt))
	root.Annotate("queue_ms", fmt.Sprintf("%.3f", float64(queueWait.Nanoseconds())/1e6))
	if meta.RequestID != "" {
		root.Annotate("request_id", meta.RequestID)
	}

	det, _, _ := s.pipeline()
	if det == nil {
		_ = d.Fail("no model loaded")
		return
	}
	scanCtx, cancel := context.WithTimeout(ctx, s.cfg.ScanTimeout)
	if meta.Trace {
		scanCtx = telemetry.ContextWithTracer(scanCtx, tr)
	}
	sp := root.Child("scan")
	var docs []scan.TreeDoc
	var degraded bool
	var werr error
	panicked := func() (p any) {
		// Second panic net around the whole tree walk: ScanOneCtx isolates
		// pipeline panics per document, this catches the walker itself.
		defer func() { p = recover() }()
		docs, degraded, werr = scan.ScanTree(scanCtx, det, d.Data)
		return nil
	}()
	cancel()
	sp.SetBytes(int64(len(d.Data)))
	sp.SetError(werr, hostile.Classify(werr))
	sp.End()

	if panicked != nil {
		// Deterministic on these bytes — retrying would panic again.
		s.metrics.Errors.Add("panic", 1)
		_ = d.Kill(fmt.Sprintf("panic: %v", panicked))
		return
	}

	res := &TicketResult{
		Ticket:    ticket,
		File:      d.Name,
		Attempt:   d.Attempt,
		QueueMS:   float64(queueWait.Nanoseconds()) / 1e6,
		RequestID: meta.RequestID,
		TraceID:   tr.TraceID,
	}
	if werr != nil {
		class := errorClass(werr)
		switch {
		case errors.Is(werr, core.ErrNotTrained):
			// Transient server fault: a model reload can fix it.
			_ = d.Fail("model not trained")
			return
		case class == "deadline":
			// Possibly host load rather than the document; bounded retries
			// settle it, then the dead-letter state holds the evidence.
			s.metrics.Errors.Add(class, 1)
			_ = d.Fail("scan deadline exceeded")
			return
		}
		// A typed document fault is a verdict (the sync path's 422
		// family): publish it and resolve the ticket.
		s.metrics.Errors.Add(class, 1)
		if hostile.ExhaustsBudget(werr) {
			s.metrics.Quarantined.Add(1)
			if name := hostile.LimitName(werr); name != "" {
				s.metrics.LimitHits.Add(name, 1)
			}
		}
		res.Status = "failed"
		res.Error = werr.Error()
		res.ErrorClass = class
	} else {
		res.Status = "done"
		res.Degraded = degraded
		for _, td := range docs {
			dr := ScanResponse{File: d.Name}
			if td.Path != "" {
				dr.File = td.Path
			}
			// Intake outcomes carry no per-request stage timings, so record
			// them like cache hits (verdict and error counters move, stage
			// histograms do not) and drop the cache marker afterwards.
			s.recordOutcome(&dr, scanOutcome{report: td.Report, err: td.Err}, true)
			dr.Cached = false
			if dr.Report != nil {
				dr.Report.ContainerPath = td.Path
			}
			res.Docs = append(res.Docs, dr)
		}
	}
	tr.Finish()
	s.recent.Add(tr.Trace())
	if meta.Trace {
		res.Trace = tr.Trace()
	}
	res.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6

	pubStart := time.Now()
	first, err := in.publish(d.ID, res)
	if err != nil {
		// Results volume fault: worth retrying, then dead-lettering.
		s.metrics.Errors.Add("intake", 1)
		_ = d.Fail("publish: " + err.Error())
		return
	}
	if first {
		in.published.Add(1)
		if meta.Webhook != "" {
			in.deliverWebhook(meta, ticket, d.ID, tr.Context().Traceparent())
		}
	}
	_ = d.Ack()
	s.log.Info("intake processed",
		"ticket", ticket,
		"trace_id", tr.TraceID,
		"file", d.Name,
		"status", res.Status,
		"docs", len(res.Docs),
		"degraded", res.Degraded,
		"attempt", d.Attempt,
		"first_publish", first,
		"queue_ms", res.QueueMS,
		"publish_ms", float64(time.Since(pubStart).Nanoseconds())/1e6,
		"elapsed_ms", res.ElapsedMS)
}

// publish writes the result file atomically, exactly once per ticket: the
// body lands in a temp file first, then os.Link — which fails when the
// target exists — installs it. A redelivered job racing the original
// therefore loses the link, publishes nothing, and skips the webhook, so
// a verdict can never be emitted twice (first reports whether this call
// won).
func (in *intake) publish(id uint64, res *TicketResult) (first bool, err error) {
	body, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	body = append(body, '\n')
	tmp, err := os.CreateTemp(in.resultsDir, fmt.Sprintf(".tmp-%d-*", id))
	if err != nil {
		return false, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		return false, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return false, err
	}
	if err := tmp.Close(); err != nil {
		return false, err
	}
	if err := os.Link(tmp.Name(), in.resultPath(id)); err != nil {
		if errors.Is(err, fs.ErrExist) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// deliverWebhook POSTs the published result to the submission's webhook.
// Best-effort, single attempt by the publish winner: the result file is
// the durable record, the webhook is a notification. The delivery carries
// the submission's request ID and the worker span's traceparent, so the
// receiver joins the same distributed trace as the original submit.
func (in *intake) deliverWebhook(meta jobMeta, ticket string, id uint64, traceparent string) {
	body, err := os.ReadFile(in.resultPath(id))
	if err != nil {
		in.webhookFailures.Add(1)
		return
	}
	req, err := http.NewRequest(http.MethodPost, meta.Webhook, bytes.NewReader(body))
	if err != nil {
		in.webhookFailures.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	req.Header.Set("X-Ticket", ticket)
	if meta.RequestID != "" {
		req.Header.Set("X-Request-ID", meta.RequestID)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := in.client.Do(req)
	if resp != nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil || resp.StatusCode >= 300 {
		in.webhookFailures.Add(1)
		in.s.log.Warn("intake webhook delivery failed",
			"ticket", ticket, "webhook", meta.Webhook, "error", fmt.Sprint(err))
	}
}
