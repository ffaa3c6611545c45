// Command vbadetect trains an obfuscation-detection model on the synthetic
// corpus (or loads a saved model) and classifies Office documents.
//
// Train and save a model:
//
//	vbadetect train -model model.json [-algo mlp] [-features V] [-scale 0.25]
//	vbadetect train -model stack.json -algo stack -features stack
//
// Scan documents:
//
//	vbadetect scan -model model.json file.doc [file2.xlsm ...]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/scan"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the subcommand and returns the process exit code. It is
// separated from main so tests can exercise the top-level usage paths.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "-h", "--help", "help":
		usage(stdout)
		return 0
	case "train":
		err = train(args[1:])
	case "scan":
		err = scanCmd(args[1:])
	default:
		fmt.Fprintf(stderr, "vbadetect: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "vbadetect:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `vbadetect detects obfuscated VBA macros in Office documents.

usage:
  vbadetect <command> [flags]

commands:
  train   train a model on the synthetic corpus and save it
  scan    classify Office documents with a saved model
  help    show this message

  vbadetect train -model out.json [-algo svm|rf|mlp|lda|bnb|stack] [-features V|J|entropy|api|stack]
                  [-scale 0.25] [-seed 1] [-workers N]
  vbadetect scan  -model model.json [-workers N] [-stats] [-trace-out spans.jsonl]
                  [-trace-chrome trace.json] [-audit-out audit.jsonl] [-audit-sample 0.1]
                  [-cache-entries N] [-cache-bytes N] file...

Run "vbadetect <command> -h" for per-command flags. The HTTP daemon
counterpart is cmd/vbadetectd.`)
}

func train(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "output model file")
	algo := fs.String("algo", "mlp", "classifier: svm, rf, mlp, lda, bnb, stack")
	featureSet := fs.String("features", "V", "feature set: V, J, entropy, api or stack")
	scale := fs.Float64("scale", 0.25, "training corpus scale (1 = full 4,212 macros)")
	seed := fs.Int64("seed", 1, "seed")
	workers := fs.Int("workers", 0, "training concurrency (0 = GOMAXPROCS); results are seed-deterministic for any value")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, err := core.ParseFeatureSet(*featureSet)
	if err != nil {
		return err
	}
	det, err := core.NewDetector(core.Algorithm(*algo), set, *seed)
	if err != nil {
		return err
	}
	det.SetWorkers(*workers)
	spec := corpus.DefaultSpec()
	spec.Seed = *seed
	shrink := func(n int) int {
		v := int(float64(n) * *scale)
		if v < 2 {
			v = 2
		}
		return v
	}
	spec.BenignMacros = shrink(spec.BenignMacros)
	spec.BenignObfuscated = shrink(spec.BenignObfuscated)
	spec.MaliciousMacros = shrink(spec.MaliciousMacros)
	spec.MaliciousObfuscated = shrink(spec.MaliciousObfuscated)
	fmt.Printf("generating %d training macros...\n", spec.BenignMacros+spec.MaliciousMacros)
	d := corpus.GenerateMacros(spec)
	fmt.Printf("training %s on %s features...\n", *algo, set)
	t0 := time.Now()
	if err := det.Train(d.Sources(), d.Labels()); err != nil {
		return err
	}
	fmt.Printf("trained in %v\n", time.Since(t0).Round(time.Millisecond))
	blob, err := det.SaveModel()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*modelPath, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *modelPath)
	return nil
}

// resolveCacheBounds mirrors the daemon's cache configuration: negative
// entries disable caching entirely; zero values apply the defaults (4096
// entries, 256 MiB); negative bytes bound the caches by entries alone.
func resolveCacheBounds(entries int, bytes int64) (int, int64, bool) {
	if entries < 0 {
		return 0, 0, false
	}
	if entries == 0 {
		entries = 4096
	}
	if bytes == 0 {
		bytes = 256 << 20
	}
	if bytes < 0 {
		bytes = 0
	}
	return entries, bytes, true
}

func scanCmd(args []string) error {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "model file from `vbadetect train`")
	workers := fs.Int("workers", 0, "scan concurrency (0 = GOMAXPROCS)")
	showStats := fs.Bool("stats", false, "print aggregate throughput and stage timings")
	traceOut := fs.String("trace-out", "", "write per-document span trees as JSONL to this file")
	traceChrome := fs.String("trace-chrome", "", "write the span trees as a Chrome trace_event file (load in chrome://tracing or Perfetto)")
	auditOut := fs.String("audit-out", "", "write verdict audit events as JSONL to this file")
	auditSample := fs.Float64("audit-sample", 1, "audit sampling rate in [0,1], keyed on document hash")
	cacheEntries := fs.Int("cache-entries", 0, "verdict cache entry capacity for duplicate documents/macros (0 = default 4096, negative = disable caching)")
	cacheBytes := fs.Int64("cache-bytes", 0, "verdict cache byte budget (0 = default 256MiB, negative = bound by entries alone)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("no files to scan")
	}
	det, err := core.LoadModelFile(*modelPath)
	if err != nil {
		return err
	}
	docs := make([]scan.Document, 0, fs.NArg())
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "  %s: %v\n", path, err)
			continue
		}
		docs = append(docs, scan.Document{Name: path, Data: data})
	}
	engine := scan.New(det, *workers)
	if entries, bytes, ok := resolveCacheBounds(*cacheEntries, *cacheBytes); ok {
		det.SetMacroCache(core.NewMacroCache(entries, bytes))
		engine.SetDocCache(scan.NewDocCache(entries, bytes))
	}

	var traces []*telemetry.Trace
	var traceMu sync.Mutex
	var traceWriter *telemetry.TraceWriter
	if *traceOut != "" || *traceChrome != "" {
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			traceWriter = telemetry.NewTraceWriter(f)
		}
		engine.SetTraceSink(func(tr *telemetry.Tracer) {
			traceWriter.Write(tr)
			if *traceChrome != "" {
				traceMu.Lock()
				traces = append(traces, tr.Trace())
				traceMu.Unlock()
			}
		})
	}
	if *auditOut != "" {
		f, err := os.Create(*auditOut)
		if err != nil {
			return err
		}
		defer f.Close()
		engine.SetAudit(telemetry.NewAuditLogger(f, telemetry.AuditConfig{SampleRate: *auditSample}))
	}

	results, stats, err := engine.ScanAll(context.Background(), docs)
	if err != nil {
		return err
	}
	if tw := traceWriter; tw != nil {
		if err := tw.Err(); err != nil {
			return fmt.Errorf("writing traces: %w", err)
		}
	}
	if *traceChrome != "" {
		f, err := os.Create(*traceChrome)
		if err != nil {
			return err
		}
		if err := telemetry.WriteChromeTrace(f, traces); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	for _, r := range results {
		if r.Err != nil {
			fmt.Printf("%s: %v\n", r.Name, r.Err)
			continue
		}
		report := r.Report
		verdict := "clean"
		if report.Obfuscated() {
			verdict = "OBFUSCATED"
		}
		fmt.Printf("%s: %s (%d macros, %d skipped)\n", r.Name, verdict, len(report.Macros), report.Skipped)
		for _, m := range report.Macros {
			flag := " "
			if m.Obfuscated {
				flag = "!"
			}
			fmt.Printf("  %s %-24s score=%+.3f\n", flag, m.Module, m.Score)
		}
	}
	if *showStats {
		fmt.Printf("scanned %d files (%d macros, %d errors, %d cache hits) in %v with %d workers: %.1f files/s, %.1f macros/s\n",
			stats.Files, stats.Macros, stats.Errors, stats.CacheHits,
			time.Duration(stats.WallNS).Round(time.Millisecond),
			engine.Workers(), stats.FilesPerSec(), stats.MacrosPerSec())
		fmt.Printf("stage time (cpu): extract %v, featurize %v, classify %v\n",
			time.Duration(stats.ExtractNS).Round(time.Microsecond),
			time.Duration(stats.FeaturizeNS).Round(time.Microsecond),
			time.Duration(stats.ClassifyNS).Round(time.Microsecond))
	}
	return nil
}
