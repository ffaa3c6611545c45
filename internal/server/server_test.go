package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cfb"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/telemetry"
)

// testFixture holds a trained detector, a saved model file and synthetic
// documents, built once for the whole package.
var testFixture = struct {
	once      sync.Once
	det       *core.Detector
	modelPath string
	macroDoc  []byte // a document containing at least one significant macro
	plainDoc  []byte // a valid container with no VBA project
	docs      [][]byte
	names     []string
	err       error
}{}

// fixtureSpec is the corpus the fixture model is trained on and its
// documents are built from.
func fixtureSpec() corpus.Spec {
	spec := corpus.SmallSpec()
	spec.BenignMacros, spec.BenignObfuscated = 120, 20
	spec.MaliciousMacros, spec.MaliciousObfuscated = 60, 55
	spec.BenignMaxLen = 4000
	return spec
}

func fixture(t *testing.T) *core.Detector {
	t.Helper()
	testFixture.once.Do(func() {
		fail := func(err error) { testFixture.err = err }
		d := corpus.GenerateMacros(fixtureSpec())
		det, err := core.NewDetector(core.AlgoRF, core.FeatureSetV, 7)
		if err != nil {
			fail(err)
			return
		}
		if err := det.Train(d.Sources(), d.Labels()); err != nil {
			fail(err)
			return
		}
		blob, err := det.SaveModel()
		if err != nil {
			fail(err)
			return
		}
		dir, err := os.MkdirTemp("", "vbadetectd-test")
		if err != nil {
			fail(err)
			return
		}
		testFixture.modelPath = filepath.Join(dir, "model.json")
		if err := os.WriteFile(testFixture.modelPath, blob, 0o644); err != nil {
			fail(err)
			return
		}
		files, err := d.BuildFiles()
		if err != nil {
			fail(err)
			return
		}
		for _, f := range files {
			testFixture.docs = append(testFixture.docs, f.Data)
			testFixture.names = append(testFixture.names, f.Name)
			if testFixture.macroDoc == nil {
				if rep, err := det.ScanFile(f.Data); err == nil && len(rep.Macros) > 0 {
					testFixture.macroDoc = f.Data
				}
			}
		}
		if testFixture.macroDoc == nil {
			fail(fmt.Errorf("no fixture document produced macros"))
			return
		}
		b := cfb.NewBuilder()
		if err := b.AddStream("WordDocument", []byte("plain text")); err != nil {
			fail(err)
			return
		}
		raw, err := b.Bytes()
		if err != nil {
			fail(err)
			return
		}
		testFixture.plainDoc = raw
		testFixture.det = det
	})
	if testFixture.err != nil {
		t.Fatal(testFixture.err)
	}
	return testFixture.det
}

func quietConfig() Config {
	return Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	det := fixture(t)
	if cfg.Logger == nil {
		cfg.Logger = quietConfig().Logger
	}
	srv := New(det, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postScan(t *testing.T, url string, body []byte) (*http.Response, ScanResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/scan", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr ScanResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, sr
}

// TestScanSingleRaw posts a raw document body and checks the report plus
// the metric counters it must move.
func TestScanSingleRaw(t *testing.T) {
	srv, ts := newTestServer(t, quietConfig())
	resp, sr := postScan(t, ts.URL, testFixture.macroDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if sr.Report == nil || len(sr.Report.Macros) == 0 {
		t.Fatalf("report missing macros: %+v", sr)
	}
	if sr.Stages == nil {
		t.Fatal("no stage timings in response")
	}
	if sr.RequestID == "" {
		t.Error("no request id in response")
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID response header")
	}
	m := srv.Metrics()
	if m.Scans.Value() != 1 {
		t.Errorf("scans = %d, want 1", m.Scans.Value())
	}
	if m.Macros.Value() == 0 {
		t.Error("macros counter is zero after a macro scan")
	}
	for name, h := range map[string]*telemetry.Histogram{
		"extract": m.StageExtract, "featurize": m.StageFeaturize,
		"classify": m.StageClassify, "request": m.RequestLatency,
		"queue_wait": m.QueueWait,
	} {
		if h.Count() == 0 {
			t.Errorf("%s histogram empty after a scan", name)
		}
	}
}

// TestScanMultipart posts the document as a multipart file part and checks
// the filename is echoed.
func TestScanMultipart(t *testing.T) {
	_, ts := newTestServer(t, quietConfig())
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("file", "invoice.docm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(testFixture.macroDoc); err != nil {
		t.Fatal(err)
	}
	mw.Close()
	resp, err := http.Post(ts.URL+"/v1/scan", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr ScanResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if sr.File != "invoice.docm" {
		t.Errorf("file = %q, want invoice.docm", sr.File)
	}
	if sr.Report == nil {
		t.Fatal("no report")
	}
}

// TestScanNoMacros asserts a macro-free container is a 200 with the
// no_macros verdict, not an error.
func TestScanNoMacros(t *testing.T) {
	srv, ts := newTestServer(t, quietConfig())
	resp, sr := postScan(t, ts.URL, testFixture.plainDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if !sr.NoMacros {
		t.Errorf("no_macros not set: %+v", sr)
	}
	if v := srv.Metrics().Verdicts.Get("no_macros"); v == nil {
		t.Error("no_macros verdict not counted")
	}
}

// TestScanMalformed asserts junk bytes yield 422 with a hostile-taxonomy
// error class (a 26-byte blob dies as a truncated compound-file header).
func TestScanMalformed(t *testing.T) {
	srv, ts := newTestServer(t, quietConfig())
	resp, sr := postScan(t, ts.URL, []byte("definitely not an OLE file"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	if sr.ErrorClass != "truncated" && sr.ErrorClass != "malformed" {
		t.Errorf("error_class = %q, want truncated or malformed", sr.ErrorClass)
	}
	if srv.Metrics().Errors.Get(sr.ErrorClass) == nil {
		t.Errorf("%s error not counted", sr.ErrorClass)
	}
}

// TestOversizeBody asserts bodies beyond MaxBodyBytes are rejected 413.
func TestOversizeBody(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxBodyBytes = 1024
	srv, ts := newTestServer(t, cfg)
	resp, err := http.Post(ts.URL+"/v1/scan", "application/octet-stream",
		bytes.NewReader(make([]byte, 4096)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	if srv.Metrics().Errors.Get("oversize") == nil {
		t.Error("oversize error not counted")
	}
}

// TestScanTimeout holds a scan at the gate past the deadline and asserts
// the request returns 504 while the server stays healthy.
func TestScanTimeout(t *testing.T) {
	cfg := quietConfig()
	cfg.ScanTimeout = 50 * time.Millisecond
	srv, ts := newTestServer(t, cfg)
	release := make(chan struct{})
	srv.scanGate = func() { <-release }
	resp, sr := postScan(t, ts.URL, testFixture.macroDoc)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if sr.ErrorClass != "timeout" {
		t.Errorf("error_class = %q, want timeout", sr.ErrorClass)
	}
	close(release)
	// The orphaned scan goroutine must finish and be drainable.
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain after timeout: %v", err)
	}
	if srv.Metrics().Errors.Get("timeout") == nil {
		t.Error("timeout error not counted")
	}
}

// TestBusy saturates the single slot and asserts the next request gets a
// prompt 429.
func TestBusy(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxInFlight = 1
	cfg.QueueWait = 50 * time.Millisecond
	srv, ts := newTestServer(t, cfg)
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.scanGate = func() {
		entered <- struct{}{}
		<-release
	}
	firstDone := make(chan int, 1)
	go func() {
		resp, _ := postScan(t, ts.URL, testFixture.macroDoc)
		firstDone <- resp.StatusCode
	}()
	<-entered // first request holds the only slot
	resp, _ := postScan(t, ts.URL, testFixture.macroDoc)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", resp.StatusCode)
	}
	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("first request status = %d, want 200", code)
	}
	if srv.Metrics().Errors.Get("busy") == nil {
		t.Error("busy error not counted")
	}
}

// TestConcurrentScans hammers the endpoint from many goroutines (run
// under -race in CI) and checks every request lands and is counted.
func TestConcurrentScans(t *testing.T) {
	srv, ts := newTestServer(t, quietConfig())
	const n = 24
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			doc := testFixture.docs[i%len(testFixture.docs)]
			resp, err := http.Post(ts.URL+"/v1/scan", "application/octet-stream", bytes.NewReader(doc))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK && code != http.StatusUnprocessableEntity {
			t.Errorf("request %d: status %d", i, code)
		}
	}
	if got := srv.Metrics().Scans.Value(); got != n {
		t.Errorf("scans = %d, want %d", got, n)
	}
}

// TestBatch posts several documents in one multipart request.
func TestBatch(t *testing.T) {
	srv, ts := newTestServer(t, quietConfig())
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	count := 4
	for i := 0; i < count; i++ {
		fw, err := mw.CreateFormFile("file", testFixture.names[i%len(testFixture.names)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(testFixture.docs[i%len(testFixture.docs)]); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	resp, err := http.Post(ts.URL+"/v1/scan/batch", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Files) != count {
		t.Fatalf("files = %d, want %d", len(br.Files), count)
	}
	if br.Stats.Files != int64(count) {
		t.Errorf("stats.files = %d, want %d", br.Stats.Files, count)
	}
	if srv.Metrics().Scans.Value() != int64(count) {
		t.Errorf("scans metric = %d, want %d", srv.Metrics().Scans.Value(), count)
	}
}

// TestBatchEmpty asserts a batch with no file parts is a 400.
func TestBatchEmpty(t *testing.T) {
	_, ts := newTestServer(t, quietConfig())
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.WriteField("note", "no files here"); err != nil {
		t.Fatal(err)
	}
	mw.Close()
	resp, err := http.Post(ts.URL+"/v1/scan/batch", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestMetricsEndpoint scans once and asserts /metrics serves JSON with
// non-zero scan counters and per-stage latency histograms.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, quietConfig())
	if resp, _ := postScan(t, ts.URL, testFixture.macroDoc); resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status = %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tree map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	if scans, _ := tree["scans"].(float64); scans == 0 {
		t.Errorf("metrics scans = %v, want > 0", tree["scans"])
	}
	for _, stage := range []string{"stage_extract_seconds", "stage_featurize_seconds", "stage_classify_seconds"} {
		h, _ := tree[stage].(map[string]any)
		if h == nil {
			t.Fatalf("metrics missing %s", stage)
		}
		if count, _ := h["count"].(float64); count == 0 {
			t.Errorf("stage %s count = %v, want > 0", stage, h["count"])
		}
	}
	if _, ok := tree["go_goroutines"]; !ok {
		t.Error("metrics missing go runtime gauges")
	}
}

// TestHealthAndReady checks liveness vs readiness, including draining.
func TestHealthAndReady(t *testing.T) {
	srv, ts := newTestServer(t, quietConfig())
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz = %d, want 200", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("readyz = %d, want 200", code)
	}
	srv.BeginShutdown()
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", code)
	}
	resp, _ := postScan(t, ts.URL, testFixture.macroDoc)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("scan while draining = %d, want 503", resp.StatusCode)
	}
}

// TestReadyzNoModel asserts a modelless server reports unready.
func TestReadyzNoModel(t *testing.T) {
	fixture(t)
	srv := New(nil, quietConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz = %d, want 503", resp.StatusCode)
	}
}

// TestReload boots from the model file and hot-reloads it over HTTP.
func TestReload(t *testing.T) {
	fixture(t)
	cfg := quietConfig()
	srv, err := NewFromModelFile(testFixture.modelPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	before := srv.Metrics().Reloads.Value()
	resp, err := http.Post(ts.URL+"/v1/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d, want 200", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["reloaded"] != true {
		t.Errorf("reloaded = %v, want true", body["reloaded"])
	}
	if got := srv.Metrics().Reloads.Value(); got != before+1 {
		t.Errorf("reloads = %d, want %d", got, before+1)
	}
	// The reloaded model still serves scans.
	if resp, sr := postScan(t, ts.URL, testFixture.macroDoc); resp.StatusCode != http.StatusOK || sr.Report == nil {
		t.Fatalf("scan after reload: status %d, report %v", resp.StatusCode, sr.Report)
	}
}

// TestReloadUnderLoad holds a scan in flight across a hot reload onto a
// different model: the pinned scan must still answer, with the model it
// started on, and every scan after the reload must use the new model. Run
// with -race this also covers the detector handoff.
func TestReloadUnderLoad(t *testing.T) {
	oldDet := fixture(t)
	d := corpus.GenerateMacros(fixtureSpec())
	newDet, err := core.NewDetector(core.AlgoRF, core.FeatureSetV, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := newDet.Train(d.Sources(), d.Labels()); err != nil {
		t.Fatal(err)
	}
	reportOf := func(det *core.Detector) string {
		rep, err := det.ScanFile(testFixture.macroDoc)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(rep.JSON())
		return string(b)
	}
	oldWant, newWant := reportOf(oldDet), reportOf(newDet)
	if oldWant == newWant {
		t.Fatal("the two models agree on the probe document; the test cannot tell them apart")
	}
	newBlob, err := newDet.SaveModel()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "model.json")
	oldBlob, err := os.ReadFile(testFixture.modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, oldBlob, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := quietConfig()
	cfg.CacheEntries = -1 // every request must run the pipeline
	srv, err := NewFromModelFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	entered := make(chan struct{})
	unblock := make(chan struct{})
	var gated atomic.Bool
	srv.scanGate = func() { // pins only the first scan
		if gated.CompareAndSwap(false, true) {
			close(entered)
			<-unblock
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	scanReport := func() string { // runs off the test goroutine: t.Error only
		resp, err := http.Post(ts.URL+"/v1/scan", "application/octet-stream", bytes.NewReader(testFixture.macroDoc))
		if err != nil {
			t.Error(err)
			return ""
		}
		defer resp.Body.Close()
		var sr ScanResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || sr.Error != "" || sr.Report == nil {
			t.Errorf("scan failed: %v, %+v", err, sr)
			return ""
		}
		b, _ := json.Marshal(sr.Report)
		return string(b)
	}

	pinned := make(chan string, 1)
	go func() { pinned <- scanReport() }()
	<-entered

	// Swap the model while the scan is pinned mid-pipeline.
	if err := os.WriteFile(path, newBlob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g := scanReport(); g != newWant {
				t.Errorf("scan after reload did not use the new model:\n got: %s\nwant: %s", g, newWant)
			}
		}()
	}
	wg.Wait()

	close(unblock)
	if g := <-pinned; g != oldWant {
		t.Fatalf("in-flight scan across reload:\n got: %s\nwant: %s", g, oldWant)
	}
}

// TestReloadNoPath asserts reload without a configured model path is 409.
func TestReloadNoPath(t *testing.T) {
	_, ts := newTestServer(t, quietConfig())
	resp, err := http.Post(ts.URL+"/v1/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
}

// TestShutdownDrain is the SIGTERM contract: with a request in flight,
// shutdown flips readiness, Drain blocks until the scan finishes, and the
// held request still completes with its full response.
func TestShutdownDrain(t *testing.T) {
	srv, ts := newTestServer(t, quietConfig())
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.scanGate = func() {
		entered <- struct{}{}
		<-release
	}
	reqDone := make(chan ScanResponse, 1)
	go func() {
		_, sr := postScan(t, ts.URL, testFixture.macroDoc)
		reqDone <- sr
	}()
	<-entered // scan is in flight

	srv.BeginShutdown()
	shortCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(shortCtx); err == nil {
		t.Fatal("Drain returned while a scan was still in flight")
	}

	close(release)
	drainCtx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
	sr := <-reqDone
	if sr.Report == nil {
		t.Fatalf("in-flight request lost its response during shutdown: %+v", sr)
	}
}

// TestPanicIsolation forces a panic inside the scan goroutine and asserts
// the server answers 500 instead of crashing. (Pipeline panics from
// malformed documents are additionally isolated one level deeper, in
// scan.ScanOne — covered by the scan package tests.)
func TestPanicIsolation(t *testing.T) {
	srv, ts := newTestServer(t, quietConfig())
	srv.scanGate = func() { panic("malformed document tripped a parser bug") }
	resp, sr := postScan(t, ts.URL, testFixture.macroDoc)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if sr.ErrorClass != "panic" {
		t.Errorf("error_class = %q, want panic", sr.ErrorClass)
	}
	if srv.Metrics().Errors.Get("panic") == nil {
		t.Error("panic error not counted")
	}
	// The server must still serve healthz after the panic.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic = %d, want 200", hresp.StatusCode)
	}
}

// TestMetricsPrometheus scrapes /metrics?format=prometheus after a scan
// and validates the exposition with the package's own parser: histogram,
// counter and Go-runtime families must all be present.
func TestMetricsPrometheus(t *testing.T) {
	_, ts := newTestServer(t, quietConfig())
	if resp, _ := postScan(t, ts.URL, testFixture.macroDoc); resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status = %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ExpositionContentType {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := telemetry.ParseExposition(body)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for name, typ := range map[string]string{
		"scans":                 "counter",
		"stage_extract_seconds": "histogram",
		"queue_wait_seconds":    "histogram",
		"request_seconds":       "histogram",
		"go_goroutines":         "gauge",
		"scan_files_per_sec":    "gauge",
	} {
		if got := sum.Families[name]; got != typ {
			t.Errorf("family %s = %q, want %q", name, got, typ)
		}
	}
}

// TestScanTraceInline asserts ?trace=1 returns the per-document span tree
// in the response, with the pipeline stages and non-zero durations.
func TestScanTraceInline(t *testing.T) {
	_, ts := newTestServer(t, quietConfig())
	resp, err := http.Post(ts.URL+"/v1/scan?trace=1", "application/octet-stream",
		bytes.NewReader(testFixture.macroDoc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr ScanResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Trace == nil || sr.Trace.Root == nil {
		t.Fatal("no trace in response")
	}
	root := sr.Trace.Root
	if root.Name != "scan" || root.DurNS <= 0 {
		t.Fatalf("malformed root span: %+v", root)
	}
	names := map[string]bool{}
	for _, c := range root.Children {
		names[c.Name] = true
	}
	if !names["extract"] {
		t.Errorf("trace missing extract span: %v", names)
	}
	// An untraced request must not carry a trace.
	if _, sr2 := postScan(t, ts.URL, testFixture.macroDoc); sr2.Trace != nil {
		t.Error("untraced request returned a trace")
	}
}

// TestServerAudit asserts both scan endpoints feed the configured audit
// log with hash-keyed verdict events.
func TestServerAudit(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	cfg := quietConfig()
	cfg.Audit = telemetry.NewAuditLogger(lockedWriter{&mu, &buf}, telemetry.AuditConfig{})
	_, ts := newTestServer(t, cfg)
	if resp, _ := postScan(t, ts.URL, testFixture.macroDoc); resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status = %d", resp.StatusCode)
	}

	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for i := 0; i < 2; i++ {
		fw, err := mw.CreateFormFile("file", fmt.Sprintf("doc-%d.doc", i))
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(testFixture.docs[i])
	}
	mw.Close()
	resp, err := http.Post(ts.URL+"/v1/scan/batch", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	lines := 0
	for _, line := range bytes.Split([]byte(out), []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		lines++
		var ev telemetry.AuditEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("audit line invalid: %v", err)
		}
		if len(ev.SHA256) != 64 {
			t.Errorf("audit event missing content hash: %+v", ev)
		}
	}
	if lines != 3 {
		t.Errorf("audit lines = %d, want 3 (1 single + 2 batch)", lines)
	}
}

// lockedWriter serializes audit writes so the test can read the buffer
// without racing the scan goroutines that outlive the HTTP response.
type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}
