package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/features"
	"repro/internal/hostile"
	"repro/internal/ml"
	"repro/internal/telemetry"
	"repro/internal/vba"
)

// span is one timed call, recorded by the benchmark around a call into a
// layer or imported from the program's own span tree. Parent 0 is a root.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// spanStore keeps every span of a traced run in memory; write runs once,
// at the end.
type spanStore struct {
	epoch time.Time
	mu    sync.Mutex
	last  uint64
	spans []span
}

func newSpanStore() *spanStore { return &spanStore{epoch: time.Now()} }

func (s *spanStore) newID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last++
	return s.last
}

// put records a span under an ID taken from newID.
func (s *spanStore) put(id, parent uint64, trace, name string, start time.Time, dur time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartNS: start.Sub(s.epoch).Nanoseconds(), DurNS: dur.Nanoseconds()})
}

// add records a span and returns its ID.
func (s *spanStore) add(parent uint64, trace, name string, start time.Time, dur time.Duration) uint64 {
	id := s.newID()
	s.put(id, parent, trace, name, start, dur)
	return id
}

// importTrace records a program span tree (telemetry.Trace) under parent,
// keeping the program's span names.
func (s *spanStore) importTrace(parent uint64, trace string, t *telemetry.Trace) {
	base := time.Unix(0, t.StartUnixNS)
	var walk func(parent uint64, sp *telemetry.Span)
	walk = func(parent uint64, sp *telemetry.Span) {
		id := s.add(parent, trace, sp.Name, base.Add(time.Duration(sp.StartNS)), time.Duration(sp.DurNS))
		for _, c := range sp.Children {
			walk(id, c)
		}
	}
	walk(parent, t.Root)
}

// write stores the spans as JSON lines.
func (s *spanStore) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range s.spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// interval is a half-open [start, end) time range in nanoseconds.
type interval struct{ start, end int64 }

// selfNS is a span's self time: its duration minus the part of its
// interval that the union of its children's intervals covers.
func selfNS(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	cur := interval{start: -1, end: -1}
	for _, c := range cs {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
		} else if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

// extractChildren are the program's spans directly under extraction that
// belong to other packages; storage_strings stays in extract's self time.
var extractChildren = map[string]string{
	"ooxml_unzip":     "ooxml",
	"cfb_parse":       "cfb",
	"ovba_decompress": "ovba",
}

// layerTotals accumulates the layer replay over a document sample.
type layerTotals struct {
	docs, macros, rows, batches int
	mismatches                  int

	scanNS    int64        // ScanFileCtx, as one call
	docScanNS []int64      // the same, per document in sample order
	tm        core.Timings // ScanFileCtx's own stage split

	extractNS     int64 // extract.FileBudget
	childNS       map[string]int64
	extractSelfNS int64
	ovbaBytes     int64
	normalizeNS   int64 // extract.NormalizeSource (significance filter)

	lexNS, parseNS, analyzeNS int64
	tokens                    int64
	channelNS                 map[string]int64
	classifyNS                int64

	allocs, allocBytes float64 // per features.Analyze call
}

// replayLayers re-runs each sampled document one layer call at a time on
// det (which must carry no macro cache), timing the calls from here and
// recording them as spans. ScanFileCtx runs first on the same document as
// the yardstick the layer sums are checked against.
func replayLayers(ctx context.Context, det *core.Detector, sample []*doc, spans *spanStore) (*layerTotals, error) {
	lt := &layerTotals{childNS: map[string]int64{}, channelNS: map[string]int64{}}
	chans := det.FeatureSet().Channels()
	var sources []string
	for _, d := range sample {
		docID := spans.newID()
		docStart := time.Now()

		t := time.Now()
		rep, tm, err := det.ScanFileCtx(ctx, d.data)
		dur := time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("scan %s: %w", d.name, err)
		}
		spans.add(docID, d.name, "scan.ScanFileCtx", t, dur)
		lt.scanNS += dur.Nanoseconds()
		lt.docScanNS = append(lt.docScanNS, dur.Nanoseconds())
		lt.tm.Add(tm)

		tr := telemetry.NewTracer(d.name)
		t = time.Now()
		res, err := extract.FileBudgetTraced(d.data, hostile.NewBudget(det.Limits()), tr.Root())
		dur = time.Since(t)
		tr.Finish()
		if err != nil {
			return nil, fmt.Errorf("extract %s: %w", d.name, err)
		}
		exID := spans.add(docID, d.name, "extract.FileBudget", t, dur)
		var kids []interval
		for _, c := range tr.Root().Children {
			spans.add(exID, d.name, c.Name, t.Add(time.Duration(c.StartNS)), time.Duration(c.DurNS))
			if layer, ok := extractChildren[c.Name]; ok {
				kids = append(kids, interval{c.StartNS, c.StartNS + c.DurNS})
				lt.childNS[layer] += c.DurNS
				if layer == "ovba" {
					lt.ovbaBytes += c.Bytes
				}
			}
		}
		lt.extractNS += dur.Nanoseconds()
		lt.extractSelfNS += selfNS(interval{0, dur.Nanoseconds()}, kids)

		var rows [][]float64
		for _, m := range res.Macros {
			t = time.Now()
			significant := len(extract.NormalizeSource(m.Source)) >= extract.MinSignificantBytes
			dur = time.Since(t)
			spans.add(docID, d.name, "extract.NormalizeSource", t, dur)
			lt.normalizeNS += dur.Nanoseconds()
			if !significant {
				continue
			}
			sources = append(sources, m.Source)
			macroID := spans.newID()
			macroStart := time.Now()

			t = time.Now()
			toks := vba.Lex(m.Source)
			dur = time.Since(t)
			spans.add(macroID, d.name, "vba.Lex", t, dur)
			lt.lexNS += dur.Nanoseconds()
			lt.tokens += int64(len(toks))

			t = time.Now()
			vba.Parse(m.Source)
			dur = time.Since(t)
			spans.add(macroID, d.name, "vba.Parse", t, dur)
			lt.parseNS += dur.Nanoseconds()

			t = time.Now()
			a := features.Analyze(m.Source)
			dur = time.Since(t)
			spans.add(macroID, d.name, "features.Analyze", t, dur)
			lt.analyzeNS += dur.Nanoseconds()

			var row []float64
			for _, c := range chans {
				t = time.Now()
				row = append(row, c.Extract(a)...)
				dur = time.Since(t)
				spans.add(macroID, d.name, "features.channel."+c.Name, t, dur)
				lt.channelNS[c.Name] += dur.Nanoseconds()
			}
			rows = append(rows, row)
			spans.put(macroID, docID, d.name, "macro", macroStart, time.Since(macroStart))
		}
		if len(rows) > 0 {
			t = time.Now()
			labels, scores := det.PredictBatch(rows)
			dur = time.Since(t)
			spans.add(docID, d.name, "core.PredictBatch", t, dur)
			lt.classifyNS += dur.Nanoseconds()
			lt.batches++
			lt.rows += len(rows)
			// The replayed layers must reproduce the scan's verdicts.
			if len(scores) != len(rep.Macros) {
				lt.mismatches++
			} else {
				for k, v := range rep.Macros {
					if (labels[k] == ml.Positive) != v.Obfuscated || scores[k] != v.Score {
						lt.mismatches++
						break
					}
				}
			}
		}
		lt.macros += len(rows)
		lt.docs++
		spans.put(docID, 0, d.name, "doc", docStart, time.Since(docStart))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	// Allocation counts need a whole-heap reading, which stops the world;
	// take it once around a second pass rather than per call.
	if len(sources) > 0 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, src := range sources {
			features.Analyze(src)
		}
		runtime.ReadMemStats(&after)
		lt.allocs = float64(after.Mallocs-before.Mallocs) / float64(len(sources))
		lt.allocBytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(sources))
	}
	return lt, nil
}

// coverageWarning describes a stage coverage outside [0.8, 1.25]: a layer
// the replay does not time, or one it times twice.
func (lt *layerTotals) coverageWarning() string {
	if lt.scanNS <= 0 {
		return ""
	}
	if c := float64(lt.layerSumNS()) / float64(lt.scanNS); c < 0.8 || c > 1.25 {
		return fmt.Sprintf("stage coverage %.3f is outside [0.8, 1.25]: the layer sums do not account for ScanFileCtx", c)
	}
	return ""
}

// layerSumNS is the sum of the layers' self times: extraction (with its
// container children), the significance filter, Analyze (which contains
// Parse, which contains Lex), every channel and classification.
func (lt *layerTotals) layerSumNS() int64 {
	sum := lt.extractNS + lt.normalizeNS + lt.analyzeNS + lt.classifyNS
	for _, ns := range lt.channelNS {
		sum += ns
	}
	return sum
}

func (lt *layerTotals) featurizeNS() int64 {
	sum := lt.analyzeNS
	for _, ns := range lt.channelNS {
		sum += ns
	}
	return sum
}
