package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/scan"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// errMismatch marks an answer whose normalized verdict differs from the
// document's reference.
var errMismatch = errors.New("verdict differs from the in-process reference")

// compare checks a normalized verdict against the document's reference.
func compare(got []byte, d *doc) error {
	if !bytes.Equal(got, d.ref) {
		return fmt.Errorf("%s: %w", d.name, errMismatch)
	}
	return nil
}

// front is the entry point a workload sends documents through.
type front interface {
	// scan submits one document and returns its normalized verdict.
	scan(ctx context.Context, d *doc) ([]byte, error)
	close()
}

// check sends d through f and compares the answer with d's reference.
func check(ctx context.Context, f front, d *doc) error {
	got, err := f.scan(ctx, d)
	if err != nil {
		return err
	}
	return compare(got, d)
}

// engineFront streams documents through one long-lived scan.Engine
// (Engine.Scan), the in-process request path: each caller waits for its
// own document's result.
type engineFront struct {
	in     chan scan.Document
	done   chan struct{}
	cancel context.CancelFunc
	seq    atomic.Uint64

	mu      sync.Mutex
	waiting map[string]chan scan.Result
}

func newEngineFront(det *core.Detector, workers int, sink func(*telemetry.Tracer)) *engineFront {
	eng := scan.New(det, workers)
	eng.SetTraceSink(sink)
	ctx, cancel := context.WithCancel(context.Background())
	e := &engineFront{
		in:      make(chan scan.Document),
		done:    make(chan struct{}),
		cancel:  cancel,
		waiting: make(map[string]chan scan.Result),
	}
	out, _ := eng.Scan(ctx, e.in)
	go func() {
		defer close(e.done)
		for res := range out {
			e.mu.Lock()
			ch := e.waiting[res.Name]
			delete(e.waiting, res.Name)
			e.mu.Unlock()
			ch <- res
		}
	}()
	return e
}

func (e *engineFront) scan(ctx context.Context, d *doc) ([]byte, error) {
	name := strconv.FormatUint(e.seq.Add(1), 10)
	ch := make(chan scan.Result, 1)
	e.mu.Lock()
	e.waiting[name] = ch
	e.mu.Unlock()
	select {
	case e.in <- scan.Document{Name: name, Data: d.data}:
	case <-ctx.Done():
		e.mu.Lock()
		delete(e.waiting, name)
		e.mu.Unlock()
		return nil, ctx.Err()
	}
	res := <-ch
	if res.Err != nil {
		return nil, res.Err
	}
	return verdictOf(res.Report)
}

func (e *engineFront) close() {
	close(e.in)
	<-e.done
	e.cancel()
}

// service is one HTTP server on a loopback listener.
type service struct {
	url string
	hs  *http.Server
	end chan struct{}
}

func serve(h http.Handler) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	s := &service{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, end: make(chan struct{})}
	go func() {
		defer close(s.end)
		_ = s.hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return s, nil
}

func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close()
	}
	<-s.end
}

// quietLogger drops the per-request logs; the JSON formatting cost stays.
func quietLogger() *slog.Logger { return slog.New(slog.NewJSONHandler(io.Discard, nil)) }

// daemon is a server.Server on loopback with its own detector.
type daemon struct {
	srv *server.Server
	svc *service
}

func startDaemon(model []byte, cacheEntries int) (*daemon, error) {
	det, err := core.LoadModel(model)
	if err != nil {
		return nil, fmt.Errorf("load daemon model: %w", err)
	}
	srv := server.New(det, server.Config{CacheEntries: cacheEntries, Logger: quietLogger()})
	svc, err := serve(srv.Handler())
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	return &daemon{srv: srv, svc: svc}, nil
}

func (d *daemon) stop() {
	d.svc.stop()
	_ = d.srv.Close()
}

// httpFront posts documents to a daemon or a gateway over at most
// `conns` keep-alive connections.
type httpFront struct {
	url string
	// daemonURL is the daemon behind url (url itself for a daemon).
	daemonURL string
	client    *http.Client
	// spans, when set, makes the front ask for each document's span tree
	// (?trace=1) and record it under the request's own span.
	spans *spanStore
	stop  func() // stops the server behind url
}

func newHTTPFront(url string, conns int, spans *spanStore, stop func()) *httpFront {
	return &httpFront{
		url:       url,
		daemonURL: url,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		}},
		spans: spans,
		stop:  stop,
	}
}

// post sends one document and returns the response body of a 200 answer.
func (h *httpFront) post(ctx context.Context, url string, d *doc) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(d.data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Filename", d.name)
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", d.name, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func (h *httpFront) scan(ctx context.Context, d *doc) ([]byte, error) {
	if h.spans == nil {
		body, err := h.post(ctx, h.url+"/v1/scan", d)
		if err != nil {
			return nil, err
		}
		return normalizeVerdict(body)
	}
	start := time.Now()
	body, err := h.post(ctx, h.url+"/v1/scan?trace=1", d)
	id := h.spans.add(0, d.name, "http.request", start, time.Since(start))
	if err != nil {
		return nil, err
	}
	var withTrace struct {
		Trace *telemetry.Trace `json:"trace"`
	}
	if json.Unmarshal(body, &withTrace) == nil && withTrace.Trace != nil {
		h.spans.importTrace(id, d.name, withTrace.Trace)
	}
	return normalizeVerdict(body)
}

func (h *httpFront) close() {
	h.client.CloseIdleConnections()
	h.stop()
}

// gatewayFleet is a fleet.Gateway in front of one daemon.
type gatewayFleet struct {
	backend *daemon
	gw      *fleet.Gateway
	svc     *service
}

func startGateway(model []byte, cacheEntries int) (*gatewayFleet, error) {
	d, err := startDaemon(model, cacheEntries)
	if err != nil {
		return nil, err
	}
	gw, err := fleet.New(fleet.Config{Backends: []string{d.svc.url}, Logger: quietLogger()})
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("build gateway: %w", err)
	}
	gw.Start()
	svc, err := serve(gw.Handler())
	if err != nil {
		gw.Close()
		d.stop()
		return nil, err
	}
	if gw.Target() == nil {
		svc.stop()
		gw.Close()
		d.stop()
		return nil, errors.New("gateway adopted no fleet model after its first probe")
	}
	return &gatewayFleet{backend: d, gw: gw, svc: svc}, nil
}

func (g *gatewayFleet) stop() {
	g.svc.stop()
	g.gw.Close()
	g.backend.stop()
}

// scrape reads a /metrics JSON tree.
func scrape(ctx context.Context, client *http.Client, url string) (map[string]json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode metrics of %s: %w", url, err)
	}
	return m, nil
}

// value reads a counter family from a scrape, or one label of a labeled
// family when name is "family.label" (0 when absent).
func value(m map[string]json.RawMessage, name string) float64 {
	if family, label, ok := strings.Cut(name, "."); ok {
		var v map[string]float64
		_ = json.Unmarshal(m[family], &v)
		return v[label]
	}
	var v float64
	_ = json.Unmarshal(m[name], &v)
	return v
}

// histogram is a latency histogram as /metrics renders it in JSON.
type histogram struct {
	Count   int64            `json:"count"`
	Buckets map[string]int64 `json:"buckets"`
}

func histogramOf(m map[string]json.RawMessage, name string) histogram {
	var h histogram
	_ = json.Unmarshal(m[name], &h)
	return h
}

// quantileBoundMS is the upper bound, in ms, of the bucket holding the
// q-quantile of h's observations (0 when none). Observations beyond the
// last finite bound read as that bound.
func quantileBoundMS(h histogram, q float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	type bucket struct {
		le  float64
		cum int64
	}
	var bs []bucket
	for k, c := range h.Buckets {
		le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(k, "le_"), "ms"), 64)
		if err == nil {
			bs = append(bs, bucket{le, c})
		}
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	need := int64(rank(q, int(h.Count)))
	for _, b := range bs {
		if b.cum >= need {
			return b.le
		}
	}
	return bs[len(bs)-1].le
}
