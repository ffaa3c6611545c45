package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
)

// replayCampaignDocs caps the campaign documents replayed layer by layer.
const replayCampaignDocs = 300

// tracedRun measures the per-layer metrics: an untraced and a traced
// closed loop (their ratio is the tracing overhead), an open loop for
// queueing and generator lateness, a short batch pass for worker
// occupancy, and a one-document-at-a-time replay that times each layer's
// public functions.
func tracedRun(ctx context.Context, w *workload, o runOpts) (*report, *phase, error) {
	b, err := setup(ctx, w, o)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()
	rep := newReport()
	tot := &phase{}
	spans := newSpanStore()

	heap, err := b.heapPeak()
	if err != nil {
		return nil, nil, err
	}
	// Untraced closed loop: runtime and cache counters.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	counts := newTally()
	sysU := &systems{b: b, cur: b.sys, observe: counts.observe(ctx)}
	closedU, err := closedLoop(ctx, sysU, b.in, o.workers, o.dur/4)
	sysU.close()
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&m1)
	tot.merge(closedU)
	if closedU.rate() <= 0 {
		return nil, nil, fmt.Errorf("closed loop completed nothing: %v", closedU.firstErr)
	}
	docs := float64(closedU.attempted)
	rep.set("go.alloc_bytes_per_doc", float64(m1.TotalAlloc-m0.TotalAlloc)/docs, "bytes")
	rep.set("go.gc_cycles_per_kdoc", float64(m1.NumGC-m0.NumGC)/docs*1000, "count")
	rep.set("go.gc_pause_ms_total", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	hitRatio := func(name, hits, misses string) {
		h := counts.n[hits]
		n := h + counts.n[misses]
		ratio := 0.0
		if n > 0 {
			ratio = h / n
		}
		rep.set(name+"_hit_ratio", ratio, "ratio")
		rep.set(name+"_lookups", n, "count")
	}
	hitRatio("cache.doc", "cache_hits", "cache_misses")
	hitRatio("cache.macro", "macro_cache_hits", "macro_cache_misses")
	hitRatio("fleet.shared", "fleet_verdict_cache_hits", "fleet_verdict_cache_misses")

	// Traced closed loop: the same traffic with every span kept.
	sysT := &systems{b: b, spans: spans}
	closedT, err := closedLoop(ctx, sysT, b.in, o.workers, o.dur/4)
	sysT.close()
	if err != nil {
		return nil, nil, err
	}
	tot.merge(closedT)
	overhead := 0.0
	if r := closedT.rate(); r > 0 {
		overhead = closedU.rate() / r
	}
	rep.set("trace.overhead_ratio", overhead, "ratio")
	rep.note("trace.overhead_ratio", "untraced over traced closed-loop throughput")

	// Open loop at a third of capacity: admission queueing and generator lateness.
	openCounts := newTally()
	sysO := &systems{b: b, observe: openCounts.observe(ctx)}
	rate := closedU.rate() / 3
	n := max(int(rate*o.dur.Seconds()/4), minP99Samples)
	open, err := openLoop(ctx, sysO, b.in, o.workers, rate, n, rand.New(rand.NewSource(o.seed)))
	sysO.close()
	if err != nil {
		return nil, nil, err
	}
	tot.merge(open)
	rep.set("server.queue_wait_ms_p99", quantileBoundMS(openCounts.queueWait, 0.99), "ms")
	rep.note("server.queue_wait_ms_p99", fmt.Sprintf("upper bound of the /metrics bucket holding p99 of n=%d", openCounts.queueWait.Count))
	rep.set("server.refused", counts.n["errors.busy"]+openCounts.n["errors.busy"], "count")
	rep.set("fleet.hedges", counts.n["fleet_hedges"]+openCounts.n["fleet_hedges"], "count")
	rep.set("fleet.failovers", counts.n["fleet_failovers"]+openCounts.n["fleet_failovers"], "count")
	q, _ := tailQuantile(len(open.late), 0.99)
	rep.set("loadgen.late_ms_p99", ms(quantileOf(open.late, q)), "ms")
	rep.note("loadgen.late_ms_p99", fmt.Sprintf("p%g of n=%d", q*100, len(open.late)))
	rep.set("loadgen.open_p50_ms", ms(quantileOf(open.lat, 0.5)), "ms")
	rep.note("loadgen.open_p50_ms", fmt.Sprintf("open loop, Poisson %.0f/s (a third of capacity), n=%d", rate, len(open.lat)))
	rep.set("loadgen.open_p99_ms", ms(quantileOf(open.lat, q)), "ms")
	rep.note("loadgen.open_p99_ms", fmt.Sprintf("p%g of n=%d", q*100, len(open.lat)))

	batch, err := b.batch(ctx, o.dur/10)
	if err != nil {
		return nil, nil, err
	}
	tot.merge(batch.phase)
	rep.set("scan.worker_busy_ratio", float64(batch.busyNS)/(float64(batch.wallNS)*float64(o.workers)), "ratio")
	peak, err := heap()
	if err != nil {
		return nil, nil, err
	}
	rep.set("heap_peak_mb", float64(peak)/(1<<20), "MiB")
	rep.note("heap_peak_mb", "of the process that scans, over the loops above")

	// Layer replay.
	det, err := core.LoadModel(b.model)
	if err != nil {
		return nil, nil, fmt.Errorf("load replay model: %w", err)
	}
	sample := replaySample(b.in)
	lt, err := replayLayers(ctx, det, sample, spans)
	if err != nil {
		return nil, nil, err
	}
	overheadUS, hopUS, hopPhase, err := hopReplay(ctx, b, sample, lt.docScanNS)
	if err != nil {
		return nil, nil, err
	}
	tot.merge(hopPhase)
	tot.attempted += lt.docs
	tot.failed += lt.mismatches
	if lt.mismatches > 0 && tot.firstErr == nil {
		tot.firstErr = fmt.Errorf("%d replayed documents classified differently from ScanFileCtx", lt.mismatches)
	}
	reportLayers(rep, lt)
	if warn := lt.coverageWarning(); warn != "" {
		fmt.Fprintf(o.log, "perfbench %s: %s\n", w.name, warn)
	}
	rep.set("server.overhead_us_p50", overheadUS, "us")
	rep.set("fleet.hop_us_p50", hopUS, "us")
	rep.set("core.model_load_ms", b.loadMS, "ms")
	rep.set("setup.corpus_s", b.corpusS, "s")
	rep.set("setup.train_s", b.trainS, "s")
	rep.set("setup.reference_s", b.refS, "s")
	failRatio := 0.0
	if tot.attempted > 0 {
		failRatio = float64(tot.failed) / float64(tot.attempted)
	}
	rep.set("fail_ratio", failRatio, "ratio")
	rep.note("fail_ratio", fmt.Sprintf("of %d operations", tot.attempted))

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, nil, err
	}
	if err := spans.write(spanPath(o, w)); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(o.log, "perfbench: %d spans written to %s\n", len(spans.spans), spanPath(o, w))
	return rep, tot, nil
}

// reportLayers turns the replay totals into per-layer metrics: extraction
// layers per document, featurization layers per significant macro,
// classification per row.
func reportLayers(rep *report, lt *layerTotals) {
	perDoc := func(ns int64) float64 { return float64(ns) / 1e3 / float64(max(lt.docs, 1)) }
	perMacro := func(ns int64) float64 { return float64(ns) / 1e3 / float64(max(lt.macros, 1)) }
	ratio := func(num, den int64) float64 {
		if den <= 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	rep.set("ooxml.unzip_us", perDoc(lt.childNS["ooxml"]), "us")
	rep.set("cfb.parse_us", perDoc(lt.childNS["cfb"]), "us")
	rep.set("ovba.decompress_us", perDoc(lt.childNS["ovba"]), "us")
	rep.set("ovba.out_bytes_per_doc", float64(lt.ovbaBytes)/float64(max(lt.docs, 1)), "bytes")
	rep.set("extract.self_us", perDoc(lt.extractSelfNS), "us")
	rep.set("extract.normalize_us", perDoc(lt.normalizeNS), "us")
	rep.set("vba.lex_us", perMacro(lt.lexNS), "us")
	rep.set("vba.tokens_per_macro", float64(lt.tokens)/float64(max(lt.macros, 1)), "count")
	rep.set("vba.parse_self_us", perMacro(lt.parseNS-lt.lexNS), "us")
	rep.set("features.analyze_self_us", perMacro(lt.analyzeNS-lt.parseNS), "us")
	rep.set("features.analyze_allocs", lt.allocs, "count")
	rep.set("features.analyze_bytes", lt.allocBytes, "bytes")
	for _, ch := range []string{"v", "j", "entropy", "api"} {
		rep.set("features.channel."+ch+"_us", perMacro(lt.channelNS[ch]), "us")
	}
	rep.set("core.classify_us_per_row", float64(lt.classifyNS)/1e3/float64(max(lt.rows, 1)), "us")
	rep.set("core.rows_per_batch", float64(lt.rows)/float64(max(lt.batches, 1)), "count")
	rep.set("scan.stage_coverage_ratio", ratio(lt.layerSumNS(), lt.scanNS), "ratio")
	rep.note("scan.stage_coverage_ratio", fmt.Sprintf("layer self times over ScanFileCtx, %d docs, %d macros", lt.docs, lt.macros))
	rep.set("scan.extract_coverage_ratio", ratio(lt.extractNS, lt.tm.ExtractNS), "ratio")
	rep.set("scan.featurize_coverage_ratio", ratio(lt.featurizeNS(), lt.tm.FeaturizeNS), "ratio")
	rep.set("scan.classify_coverage_ratio", ratio(lt.classifyNS, lt.tm.ClassifyNS), "ratio")
}

// replaySample is the documents replayed layer by layer: every corpus
// document, or the campaign's fresh documents in stream order, which miss
// every cache tier on first sight.
func replaySample(in *inputs) []*doc {
	var out []*doc
	seen := map[int]bool{}
	for _, k := range in.stream {
		d := &in.docs[k]
		if seen[k] || (!in.cyclic && !d.fresh) {
			continue
		}
		seen[k] = true
		out = append(out, d)
		if !in.cyclic && len(out) == replayCampaignDocs {
			break
		}
	}
	return out
}

// hopReplay sends the sample one document at a time over HTTP and returns
// the median extra time of the daemon over a direct ScanFileCtx of the
// same document (directNS, from the layer replay), and of the gateway
// over a direct request to an identically configured daemon. Every sample
// document is new to every cache tier, so both are miss paths. Engine
// workloads have no HTTP hop and report 0.
func hopReplay(ctx context.Context, b *bench, sample []*doc, directNS []int64) (overheadUS, hopUS float64, p *phase, err error) {
	p = &phase{}
	if b.w.kind == "engine" {
		return 0, 0, p, nil
	}
	fd, err := b.start(ctx, nil)
	if err != nil {
		return 0, 0, nil, err
	}
	defer fd.close()
	front := fd.(*httpFront)
	daemonFront := front
	if b.w.kind == "gateway" {
		url, _, stop, err := b.remote.start("daemon", b.w.cacheEntries)
		if err != nil {
			return 0, 0, nil, err
		}
		daemonFront = newHTTPFront(url, 1, nil, stop)
		defer daemonFront.close()
		for _, k := range b.in.warm {
			if err := check(ctx, daemonFront, &b.in.docs[k]); err != nil {
				return 0, 0, nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	timed := func(f *httpFront, d *doc) (time.Duration, error) {
		t := time.Now()
		body, err := f.post(ctx, f.url+"/v1/scan", d)
		dur := time.Since(t)
		if err != nil {
			return dur, err
		}
		got, err := normalizeVerdict(body)
		if err == nil {
			err = compare(got, d)
		}
		return dur, err
	}
	overhead := make([]time.Duration, 0, len(sample))
	hop := make([]time.Duration, 0, len(sample))
	for i, d := range sample {
		ds, err := timed(daemonFront, d)
		p.add(ds, err)
		if err != nil {
			continue
		}
		overhead = append(overhead, ds-time.Duration(directNS[i]))
		if daemonFront == front {
			continue
		}
		gs, err := timed(front, d)
		p.add(gs, err)
		if err == nil {
			hop = append(hop, gs-ds)
		}
	}
	us := func(s []time.Duration) float64 { return float64(quantileOf(s, 0.5).Nanoseconds()) / 1e3 }
	return us(overhead), us(hop), p, nil
}

// tally sums /metrics counter deltas over the passes of a phase.
type tally struct {
	before    scrapes
	n         map[string]float64
	queueWait histogram
}

func newTally() *tally {
	return &tally{n: map[string]float64{}, queueWait: histogram{Buckets: map[string]int64{}}}
}

// Counters tallied per tier; a labeled family is read as family.label.
var (
	daemonCounters  = []string{"cache_hits", "cache_misses", "macro_cache_hits", "macro_cache_misses", "errors.busy"}
	gatewayCounters = []string{"fleet_verdict_cache_hits", "fleet_verdict_cache_misses", "fleet_hedges", "fleet_failovers"}
)

func (t *tally) observe(ctx context.Context) func(front, bool) error {
	return func(f front, after bool) error {
		s, err := scrapeAll(ctx, f)
		if err != nil || !after {
			t.before = s
			return err
		}
		for _, tier := range []struct {
			names         []string
			before, after map[string]json.RawMessage
		}{{daemonCounters, t.before.daemon, s.daemon}, {gatewayCounters, t.before.gateway, s.gateway}} {
			for _, name := range tier.names {
				t.n[name] += value(tier.after, name) - value(tier.before, name)
			}
		}
		hb, ha := histogramOf(t.before.daemon, "queue_wait_seconds"), histogramOf(s.daemon, "queue_wait_seconds")
		t.queueWait.Count += ha.Count - hb.Count
		for k, v := range ha.Buckets {
			t.queueWait.Buckets[k] += v - hb.Buckets[k]
		}
		return nil
	}
}

// scrapes are /metrics snapshots of a system's daemon and gateway (nil
// maps for an in-process engine or a missing tier).
type scrapes struct{ daemon, gateway map[string]json.RawMessage }

func scrapeAll(ctx context.Context, f front) (scrapes, error) {
	var s scrapes
	h, ok := f.(*httpFront)
	if !ok {
		return s, nil
	}
	var err error
	if s.daemon, err = scrape(ctx, h.client, h.daemonURL); err != nil {
		return s, err
	}
	if h.daemonURL != h.url {
		s.gateway, err = scrape(ctx, h.client, h.url)
	}
	return s, err
}
