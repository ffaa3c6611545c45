package fleet

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cfb"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/faultinject"
	"repro/internal/scan"
	"repro/internal/server"
)

// legacyContainerFixture is a VBADMDL1 model container (container version
// 1: JSON model head plus a compiled-forest section) written by the
// container writer that older releases shipped. Its JSON head is the
// Random Forest over the V features that e2eModel trains (e2eSpec, seed
// 7). It is kept verbatim so loaders keep accepting containers
// already deployed in the field.
const legacyContainerFixture = "testdata/legacy_rf_v.vbadmdl.gz"

// readLegacyContainer returns the fixture container and its JSON model
// head, located through the frozen 24-byte preamble (magic, version,
// reserved word, little-endian JSON length).
func readLegacyContainer(t *testing.T) (container, head []byte) {
	t.Helper()
	f, err := os.Open(legacyContainerFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	container, err = io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if len(container) < 24 || string(container[:8]) != "VBADMDL1" {
		t.Fatal("fixture is not a VBADMDL1 container")
	}
	n := binary.LittleEndian.Uint64(container[16:24])
	if n > uint64(len(container)-24) {
		t.Fatal("fixture container truncated")
	}
	return container, container[24 : 24+n]
}

// differentialDocs is the document set every path scans: corpus documents
// of both classes, a container with no VBA project, and a document with
// one destroyed module (a degraded report).
func differentialDocs(t *testing.T) []scan.Document {
	t.Helper()
	files, err := corpus.GenerateMacros(e2eSpec()).BuildFiles()
	if err != nil {
		t.Fatal(err)
	}
	var docs []scan.Document
	for i := 0; i < len(files) && len(docs) < 40; i += 5 {
		docs = append(docs, scan.Document{Name: files[i].Name, Data: files[i].Data})
	}
	b := cfb.NewBuilder()
	if err := b.AddStream("WordDocument", []byte("plain text")); err != nil {
		t.Fatal(err)
	}
	plain, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	partial, err := faultinject.PartialCorruption()
	if err != nil {
		t.Fatal(err)
	}
	return append(docs,
		scan.Document{Name: "plain.doc", Data: plain},
		scan.Document{Name: partial.Name, Data: partial.Data})
}

// noMacros is the normalized outcome of a document without a VBA project.
const noMacros = "no_macros"

// normalizeReport reduces a report to the bytes every path must agree on:
// the ReportJSON re-marshaled, so request/trace IDs, timings and
// cache/backend flags (which live outside it) are dropped.
func normalizeReport(t *testing.T, rep *core.ReportJSON) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// normalizeResponse normalizes one daemon or gateway scan response.
func normalizeResponse(t *testing.T, what string, noMacrosFlag bool, report json.RawMessage, errMsg string) string {
	t.Helper()
	if errMsg != "" {
		t.Fatalf("%s: scan error %q", what, errMsg)
	}
	if noMacrosFlag {
		return noMacros
	}
	var rep core.ReportJSON
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatalf("%s: decoding report: %v", what, err)
	}
	return normalizeReport(t, &rep)
}

func engineOutcomes(t *testing.T, det *core.Detector, docs []scan.Document) []string {
	t.Helper()
	results, _, err := scan.New(det, 2).ScanAll(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(results))
	for i, r := range results {
		switch {
		case errors.Is(r.Err, extract.ErrNoMacros):
			out[i] = noMacros
		case r.Err != nil:
			t.Fatalf("engine: %s: %v", r.Name, r.Err)
		default:
			out[i] = normalizeReport(t, r.Report.JSON())
		}
	}
	return out
}

// syncOutcomes posts every document to base+"/v1/scan" (a daemon or a
// gateway) and checks each response's cache flag against wantCached.
func syncOutcomes(t *testing.T, base string, docs []scan.Document, wantCached func(gatewayScanResponse) bool) []string {
	t.Helper()
	out := make([]string, len(docs))
	for i, d := range docs {
		resp, sr := gwScan(t, base, d.Data)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: status %d", base, d.Name, resp.StatusCode)
		}
		if !wantCached(sr) {
			t.Fatalf("%s: %s: unexpected cache flags cached=%v shared=%v",
				base, d.Name, sr.Cached, sr.SharedCache)
		}
		out[i] = normalizeResponse(t, d.Name, sr.NoMacros, sr.Report, sr.Error)
	}
	return out
}

// cacheable reports whether the verdict caches keep this answer: only
// complete reports are cached, never a no-macros answer or a degraded
// report.
func cacheable(r gatewayScanResponse) bool {
	var rep struct {
		Degraded bool `json:"degraded"`
	}
	return !r.NoMacros && json.Unmarshal(r.Report, &rep) == nil && !rep.Degraded
}

// asyncOutcomes submits every document to /v1/submit, then polls each
// ticket to its published result.
func asyncOutcomes(t *testing.T, base string, docs []scan.Document) []string {
	t.Helper()
	tickets := make([]string, len(docs))
	for i, d := range docs {
		resp, err := http.Post(base+"/v1/submit", "application/octet-stream", bytes.NewReader(d.Data))
		if err != nil {
			t.Fatal(err)
		}
		var sr server.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d, %v", d.Name, resp.StatusCode, err)
		}
		tickets[i] = sr.Ticket
	}
	out := make([]string, len(docs))
	for i, ticket := range tickets {
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(base + "/v1/tickets/" + ticket)
			if err != nil {
				t.Fatal(err)
			}
			var tr server.TicketResult
			err = json.NewDecoder(resp.Body).Decode(&tr)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if tr.Status == "done" {
				if len(tr.Docs) != 1 {
					t.Fatalf("async %s: %d documents, want 1", docs[i].Name, len(tr.Docs))
				}
				d := tr.Docs[0]
				var raw json.RawMessage
				if d.Report != nil {
					raw, _ = json.Marshal(d.Report)
				}
				out[i] = normalizeResponse(t, docs[i].Name, d.NoMacros, raw, d.Error)
				break
			}
			if tr.Status == "failed" || tr.Status == "dead" {
				t.Fatalf("async %s: status %q (%s)", docs[i].Name, tr.Status, tr.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("async %s: ticket %s never finished", docs[i].Name, ticket)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return out
}

// TestVerdictIdentityAcrossPaths scans the same documents through every
// serving path and requires byte-identical reports: the in-process
// engine, daemon sync /v1/scan, daemon async submit+poll, gateway →
// daemon, the gateway's shared tier and the daemon's document cache on
// repeat requests, the daemon after Reload, and detectors (engine and
// daemon) loaded from a legacy model container.
func TestVerdictIdentityAcrossPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("differential test in -short mode")
	}
	container, head := readLegacyContainer(t)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "model.json")
	legacyPath := filepath.Join(dir, "model.vbadmdl")
	if err := os.WriteFile(jsonPath, head, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacyPath, container, 0o644); err != nil {
		t.Fatal(err)
	}
	docs := differentialDocs(t)

	ref, err := core.LoadModel(head)
	if err != nil {
		t.Fatal(err)
	}
	want := engineOutcomes(t, ref, docs)
	digest := sha256.New()
	for _, w := range want {
		digest.Write([]byte(w))
		digest.Write([]byte{'\n'})
	}
	t.Logf("engine reference: %d documents, digest %x", len(want), digest.Sum(nil))
	var reports int
	for _, w := range want {
		if w != noMacros {
			reports++
		}
	}
	if reports < len(docs)/2 {
		t.Fatalf("only %d of %d documents produced reports", reports, len(docs))
	}

	check := func(path string, got []string) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: %s diverged from the engine\n got: %s\nwant: %s",
					path, docs[i].Name, got[i], want[i])
			}
		}
	}
	cold := func(r gatewayScanResponse) bool { return !r.Cached && !r.SharedCache }

	legacy, err := core.LoadModel(container)
	if err != nil {
		t.Fatal(err)
	}
	check("engine/legacy-container", engineOutcomes(t, legacy, docs))

	cfg := quietServerConfig()
	cfg.Intake = server.IntakeConfig{Dir: t.TempDir(), NoSync: true}
	srv, err := server.NewFromModelFile(jsonPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.StartIntake(); err != nil {
		t.Fatal(err)
	}
	daemon := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		daemon.Close()
		_ = srv.Close()
	})
	gwCfg := quietGatewayConfig()
	gwCfg.Backends = []string{daemon.URL}
	_, gw := newTestGateway(t, gwCfg)

	check("gateway", syncOutcomes(t, gw.URL, docs, cold))
	check("gateway/shared-tier", syncOutcomes(t, gw.URL, docs,
		func(r gatewayScanResponse) bool { return r.SharedCache || !cacheable(r) }))
	check("daemon/cache-hit", syncOutcomes(t, daemon.URL, docs,
		func(r gatewayScanResponse) bool { return r.Cached || !cacheable(r) }))
	check("daemon/async", asyncOutcomes(t, daemon.URL, docs))
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	check("daemon/post-reload", syncOutcomes(t, daemon.URL, docs, cold))

	legacySrv, err := server.NewFromModelFile(legacyPath, quietServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	legacyDaemon := httptest.NewServer(legacySrv.Handler())
	t.Cleanup(func() {
		legacyDaemon.Close()
		_ = legacySrv.Close()
	})
	check("daemon/legacy-container", syncOutcomes(t, legacyDaemon.URL, docs, cold))
}
