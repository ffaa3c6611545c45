package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/server"
)

// e2eFixture trains one detector, saves its model and keeps synthetic
// documents — built once for the package, shared by the e2e tests.
var e2eFixture = struct {
	once      sync.Once
	modelPath string
	docs      [][]byte
	err       error
}{}

// e2eSpec is the corpus the e2e model is trained on and its documents
// are built from.
func e2eSpec() corpus.Spec {
	spec := corpus.SmallSpec()
	spec.BenignMacros, spec.BenignObfuscated = 120, 20
	spec.MaliciousMacros, spec.MaliciousObfuscated = 60, 55
	spec.BenignMaxLen = 4000
	return spec
}

func e2eModel(t *testing.T) (string, [][]byte) {
	t.Helper()
	e2eFixture.once.Do(func() {
		fail := func(err error) { e2eFixture.err = err }
		d := corpus.GenerateMacros(e2eSpec())
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
		dir, err := os.MkdirTemp("", "fleet-e2e")
		if err != nil {
			fail(err)
			return
		}
		e2eFixture.modelPath = filepath.Join(dir, "model.json")
		if err := os.WriteFile(e2eFixture.modelPath, blob, 0o644); err != nil {
			fail(err)
			return
		}
		files, err := d.BuildFiles()
		if err != nil {
			fail(err)
			return
		}
		for _, f := range files {
			e2eFixture.docs = append(e2eFixture.docs, f.Data)
		}
	})
	if e2eFixture.err != nil {
		t.Fatal(e2eFixture.err)
	}
	return e2eFixture.modelPath, e2eFixture.docs
}

// realBackend is one actual vbadetectd server.Server on a test listener,
// with a middleware counter proving how many scans reached it.
type realBackend struct {
	srv   *server.Server
	ts    *httptest.Server
	scans atomic.Int64
}

func newRealBackend(t *testing.T, modelPath string) *realBackend {
	t.Helper()
	srv, err := server.NewFromModelFile(modelPath, quietServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	rb := &realBackend{srv: srv}
	inner := srv.Handler()
	rb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/scan" {
			rb.scans.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		rb.ts.Close()
		_ = srv.Close()
	})
	return rb
}

func quietServerConfig() server.Config {
	return server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

// TestE2EFleetIdentity is acceptance (a) + (b): gateway verdicts are
// byte-identical to a direct single-node scan, and a repeat document is
// answered from the shared tier with every backend's scan counter
// unchanged.
func TestE2EFleetIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e fleet test in -short mode")
	}
	modelPath, docs := e2eModel(t)
	b1 := newRealBackend(t, modelPath)
	b2 := newRealBackend(t, modelPath)
	cfg := quietGatewayConfig()
	cfg.Backends = []string{b1.ts.URL, b2.ts.URL}
	_, ts := newTestGateway(t, cfg)

	if len(docs) < 20 {
		t.Fatalf("fixture produced only %d docs", len(docs))
	}
	docs = docs[:20]

	// (a) Byte-identical reports: direct node scan vs gateway scan.
	for i, doc := range docs {
		direct, err := http.Post(b1.ts.URL+"/v1/scan", "application/octet-stream", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		var dr gatewayScanResponse
		if err := json.NewDecoder(direct.Body).Decode(&dr); err != nil {
			t.Fatal(err)
		}
		direct.Body.Close()
		if direct.StatusCode != http.StatusOK {
			t.Fatalf("direct scan %d = %d", i, direct.StatusCode)
		}
		resp, gr := gwScan(t, ts.URL, doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gateway scan %d = %d", i, resp.StatusCode)
		}
		if !bytes.Equal(dr.Report, gr.Report) {
			t.Fatalf("doc %d: gateway report differs from single-node report\n direct=%s\ngateway=%s",
				i, dr.Report, gr.Report)
		}
		if dr.NoMacros != gr.NoMacros {
			t.Fatalf("doc %d: no_macros direct=%v gateway=%v", i, dr.NoMacros, gr.NoMacros)
		}
	}

	// (b) Repeat scans come from the shared tier: backend counters frozen.
	before1, before2 := b1.scans.Load(), b2.scans.Load()
	for i, doc := range docs {
		resp, gr := gwScan(t, ts.URL, doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repeat scan %d = %d", i, resp.StatusCode)
		}
		if !gr.SharedCache {
			t.Errorf("repeat scan %d not served from the shared tier", i)
		}
	}
	if a, b := b1.scans.Load(), b2.scans.Load(); a != before1 || b != before2 {
		t.Errorf("repeat pass touched backends: scans %d/%d -> %d/%d", before1, before2, a, b)
	}
}

// TestE2EFleetFailover is acceptance (c): with two backends under
// concurrent load, hard-killing one mid-stream (listener torn down,
// in-flight connections reset — the kill -9 shape) completes every
// request via hedged failover with zero 5xx.
func TestE2EFleetFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e fleet test in -short mode")
	}
	modelPath, docs := e2eModel(t)
	b1 := newRealBackend(t, modelPath)
	b2 := newRealBackend(t, modelPath)
	cfg := quietGatewayConfig()
	cfg.Backends = []string{b1.ts.URL, b2.ts.URL}
	cfg.CacheEntries = -1                  // every request must actually route
	cfg.HedgeAfter = 50 * time.Millisecond // a stalled victim connection hedges fast
	_, ts := newTestGateway(t, cfg)

	const workers = 8
	const perWorker = 25
	var failures atomic.Int64
	var completed atomic.Int64
	var wg sync.WaitGroup
	killed := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				doc := docs[(w*perWorker+i)%len(docs)]
				resp, err := http.Post(ts.URL+"/v1/scan", "application/octet-stream", bytes.NewReader(doc))
				if err != nil {
					failures.Add(1)
					t.Errorf("worker %d scan %d: %v", w, i, err)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("worker %d scan %d: status %d after kill=%v", w, i, resp.StatusCode, isClosed(killed))
				}
				resp.Body.Close()
				completed.Add(1)
			}
		}(w)
	}
	// Let the load ramp, then hard-kill backend 2: close its listener and
	// reset every open connection without draining (kill -9 semantics —
	// httptest.Server.Close would politely wait for in-flight requests).
	time.Sleep(150 * time.Millisecond)
	b2.ts.Listener.Close()
	b2.ts.CloseClientConnections()
	close(killed)
	wg.Wait()

	if got := completed.Load(); got != workers*perWorker {
		t.Errorf("completed %d/%d requests", got, workers*perWorker)
	}
	if got := failures.Load(); got != 0 {
		t.Errorf("%d requests failed across the backend kill, want 0", got)
	}
	if b1.scans.Load() == 0 {
		t.Error("surviving backend served no scans")
	}
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestE2EGatewayModelEndpoint: the gateway's /v1/model reports the same
// identity as the backends' own — gateways compose with skew tooling.
func TestE2EGatewayModelEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e fleet test in -short mode")
	}
	modelPath, _ := e2eModel(t)
	b1 := newRealBackend(t, modelPath)
	cfg := quietGatewayConfig()
	cfg.Backends = []string{b1.ts.URL}
	_, ts := newTestGateway(t, cfg)

	want := fetchModel(t, b1.ts.URL)
	got := fetchModel(t, ts.URL)
	if want.ModelSHA256 == "" || got.ModelSHA256 != want.ModelSHA256 {
		t.Errorf("gateway model %q != backend model %q", got.ModelSHA256, want.ModelSHA256)
	}
	if got.FeatureSetID != want.FeatureSetID {
		t.Errorf("gateway feature_set_id %q != backend %q", got.FeatureSetID, want.FeatureSetID)
	}
}

func fetchModel(t *testing.T, base string) server.ModelResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/v1/model = %d", base, resp.StatusCode)
	}
	var mr server.ModelResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	return mr
}
