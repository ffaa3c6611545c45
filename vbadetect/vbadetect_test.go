package vbadetect_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cfb"
	"repro/internal/corpus"
	"repro/internal/ooxml"
	"repro/internal/ovba"
	"repro/vbadetect"
)

func trainedDetector(t *testing.T) *vbadetect.Detector {
	t.Helper()
	spec := corpus.SmallSpec()
	spec.BenignMacros, spec.BenignObfuscated = 120, 10
	spec.MaliciousMacros, spec.MaliciousObfuscated = 50, 48
	spec.BenignMaxLen = 4000
	d := corpus.GenerateMacros(spec)
	det, err := vbadetect.NewDetector(vbadetect.AlgoRF, vbadetect.FeatureSetV, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Train(d.Sources(), d.Labels()); err != nil {
		t.Fatal(err)
	}
	return det
}

func buildDocm(t *testing.T, sources ...string) []byte {
	t.Helper()
	p := &ovba.Project{Name: "P"}
	for i, src := range sources {
		p.Modules = append(p.Modules, ovba.Module{Name: "Module" + string(rune('1'+i)), Source: src})
	}
	b := cfb.NewBuilder()
	if err := p.WriteTo(b, ""); err != nil {
		t.Fatal(err)
	}
	vbaBin, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ooxml.Write(ooxml.DocWord, vbaBin, 0)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

const benignSrc = `Sub UpdateTotals()
    ' accumulate the weekly totals
    Dim rowIndex As Long
    Dim totalValue As Long
    For rowIndex = 1 To 40
        totalValue = totalValue + Cells(rowIndex, 3).Value
    Next rowIndex
    Worksheets("Summary").Range("C1").Value = totalValue
End Sub
`

func TestFacadeEndToEnd(t *testing.T) {
	det := trainedDetector(t)
	doc := buildDocm(t, benignSrc)
	report, err := det.ScanFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if report.Format != "ooxml" {
		t.Errorf("format = %q", report.Format)
	}
	if len(report.Macros) != 1 {
		t.Fatalf("macros = %d", len(report.Macros))
	}
	if report.Macros[0].Obfuscated {
		t.Errorf("benign macro flagged (score %v)", report.Macros[0].Score)
	}
}

func TestFacadeExtractMacros(t *testing.T) {
	doc := buildDocm(t, benignSrc)
	sources, err := vbadetect.ExtractMacros(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != 1 || sources[0] != benignSrc {
		t.Fatalf("sources = %q", sources)
	}
	if _, err := vbadetect.ExtractMacros([]byte("junk")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestFacadeModelRoundTrip(t *testing.T) {
	det := trainedDetector(t)
	blob, err := det.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := vbadetect.LoadModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	a, err := det.ClassifySource(benignSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.ClassifySource(benignSrc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score {
		t.Errorf("scores differ: %v vs %v", a.Score, b.Score)
	}
}

// TestFacadeModelFile saves a model to disk and checks the file loader
// restores a detector with the same verdicts.
func TestFacadeModelFile(t *testing.T) {
	det := trainedDetector(t)
	blob, err := det.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := vbadetect.LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := det.ClassifySource(benignSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.ClassifySource(benignSrc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score {
		t.Errorf("scores differ: %v vs %v", a.Score, b.Score)
	}
}

func TestFacadeNoMacros(t *testing.T) {
	det := trainedDetector(t)
	doc, err := ooxml.Write(ooxml.DocWord, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = doc
	// A docm without a VBA part (built manually).
	b := cfb.NewBuilder()
	if err := b.AddStream("WordDocument", []byte("x")); err != nil {
		t.Fatal(err)
	}
	raw, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.ScanFile(raw); !errors.Is(err, vbadetect.ErrNoMacros) {
		t.Errorf("err = %v, want ErrNoMacros", err)
	}
}

func TestFacadeDeobfuscate(t *testing.T) {
	res := vbadetect.Deobfuscate(`x = "pow" & "ershell"` + "\n")
	if res.Folds == 0 {
		t.Error("no folds")
	}
	found := false
	for _, s := range res.Recovered {
		if s == "powershell" {
			found = true
		}
	}
	if !found {
		t.Errorf("recovered = %q", res.Recovered)
	}
}

func TestFacadeTriage(t *testing.T) {
	rep := vbadetect.Triage(`Sub AutoOpen()
    Shell "C:\Temp\x" & ".exe", vbHide
End Sub
`)
	if !rep.HasAutoExec() || !rep.Suspicious() {
		t.Errorf("triage missed basics: %+v", rep.Findings)
	}
	if len(rep.IOCs()) == 0 {
		t.Error("no IOCs")
	}
}

func TestFacadeBatchScan(t *testing.T) {
	det := trainedDetector(t)
	obf := "Sub x()\ny = Chr(104) & Chr(116) & Chr(116) & Chr(112) & Chr(58) & Chr(47) & Chr(47) & Chr(101) & Chr(118) & Chr(105) & Chr(108) & Chr(46) & Chr(101) & Chr(120) & Chr(101)\nCreateObject(\"WScript.Shell\").Run y\nEnd Sub\n"
	plain := "Sub Report()\nDim total As Long\nDim row As Long\nFor row = 1 To 10\ntotal = total + row * 2\nNext row\nIf total > 50 Then\nMsgBox \"large total\"\nElse\nMsgBox \"small total\"\nEnd If\nEnd Sub\n"
	docs := []vbadetect.Document{
		{Name: "a.docm", Data: buildDocm(t, obf)},
		{Name: "b.docm", Data: buildDocm(t, plain)},
	}
	eng := vbadetect.NewEngine(det, 2)
	results, stats, err := eng.ScanAll(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(docs) {
		t.Fatalf("results = %d, want %d", len(results), len(docs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("doc %d: %v", i, r.Err)
		}
		if r.Name != docs[i].Name {
			t.Errorf("result %d is %q, want %q (order not preserved)", i, r.Name, docs[i].Name)
		}
		seq, err := det.ScanFile(docs[i].Data)
		if err != nil {
			t.Fatal(err)
		}
		for k := range seq.Macros {
			if seq.Macros[k].Score != r.Report.Macros[k].Score {
				t.Errorf("doc %d macro %d: batch score differs from sequential", i, k)
			}
		}
	}
	if stats.Files != int64(len(docs)) || stats.Macros == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.FilesPerSec() <= 0 {
		t.Error("FilesPerSec not positive")
	}
}

// TestTelemetryFacade drives the observability re-exports end to end:
// context-attached tracing, the metrics registry, and the audit log.
func TestTelemetryFacade(t *testing.T) {
	det := trainedDetector(t)
	doc := buildDocm(t, benignSrc)

	tr := vbadetect.NewTracer("facade.docm")
	ctx := vbadetect.WithTracer(context.Background(), tr)
	if _, _, err := vbadetect.ScanOneCtx(ctx, det, doc); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	trace := tr.Trace()
	if trace.Root == nil || trace.Root.DurNS <= 0 || len(trace.Root.Children) == 0 {
		t.Fatalf("facade trace malformed: %+v", trace.Root)
	}

	reg := vbadetect.NewRegistry()
	reg.Counter("facade_scans", "").Add(1)
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "facade_scans 1") {
		t.Errorf("registry exposition missing counter:\n%s", prom.String())
	}

	var audit bytes.Buffer
	engine := vbadetect.NewEngine(det, 2)
	engine.SetAudit(vbadetect.NewAuditLogger(&audit, vbadetect.AuditConfig{}))
	if _, _, err := engine.ScanAll(context.Background(),
		[]vbadetect.Document{{Name: "facade.docm", Data: doc}}); err != nil {
		t.Fatal(err)
	}
	var ev vbadetect.AuditEvent
	if err := json.Unmarshal(audit.Bytes(), &ev); err != nil {
		t.Fatalf("audit line invalid: %v", err)
	}
	if len(ev.SHA256) != 64 || ev.FeatureSet != "V" {
		t.Errorf("audit event incomplete: %+v", ev)
	}
}
