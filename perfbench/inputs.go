package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/cfb"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ovba"
	"repro/internal/server"
)

// doc is one distinct document the benchmark sends, with the verdict every
// path must return for it.
type doc struct {
	name string
	data []byte
	// ref is the normalized reference verdict (see normalizeVerdict),
	// computed in-process with ScanFileCtx on the workload's model.
	ref []byte
	// fresh marks a campaign document whose macros no earlier request
	// carried, so every cache tier misses on it.
	fresh bool
	// sources are the module sources packaged into a campaign document,
	// kept so later requests can re-package the same macros.
	sources []string
}

// inputs is everything a workload sends, built from the seed alone.
type inputs struct {
	dataset *corpus.Dataset // training macros
	docs    []doc
	// stream is the request order as indices into docs. A cyclic stream
	// wraps around; a non-cyclic one (campaign traffic, where wrapping
	// would turn every later request into a cache hit) is replayed in
	// passes, each on a fresh entry point with cold caches.
	stream []int
	cyclic bool
	// warm are documents sent before timing starts; they are not part of
	// the stream, so warm-up leaves the caches the stream meets cold.
	warm []int
}

// docAt returns the document of request i.
func (in *inputs) docAt(i int) *doc {
	if in.cyclic {
		i %= len(in.stream)
	}
	return &in.docs[in.stream[i]]
}

// streamLen is the number of requests a phase may send (-1: unbounded).
func (in *inputs) streamLen() int {
	if in.cyclic {
		return -1
	}
	return len(in.stream)
}

// corpusInputs builds a Table II corpus (large benign OOXML, small
// malicious OLE) and streams it in the order seed draws, cyclically.
func corpusInputs(spec corpus.Spec, seed int64, warm int) (*inputs, error) {
	d := corpus.GenerateMacros(spec)
	files, err := d.BuildFiles()
	if err != nil {
		return nil, fmt.Errorf("build corpus files: %w", err)
	}
	in := &inputs{dataset: d, cyclic: true}
	for _, f := range files {
		in.docs = append(in.docs, doc{name: f.Name, data: f.Data})
	}
	in.stream = rand.New(rand.NewSource(seed)).Perm(len(in.docs))
	if warm > len(in.stream) {
		warm = len(in.stream)
	}
	in.warm = append([]int(nil), in.stream[:warm]...)
	return in, nil
}

// Campaign traffic shares (Casino et al.: malicious-document campaigns
// re-send the same macros in many documents).
const (
	campaignRepeatShare     = 0.50 // byte-identical re-send of an earlier document
	campaignRepackagedShare = 0.25 // new bytes, macros an earlier request carried
)

// campaignInputs builds n requests of campaign-shaped traffic, drawn by
// seed, over the macros of spec's corpus. Fresh documents carry base macros made unique
// by one appended comment line, so they cost a full scan and miss every
// cache without generating new macros; re-packaged documents wrap an
// earlier request's macros in a new container; repeats resend an earlier
// request's bytes. All corpus macros serve as bases, benign and malicious:
// the 83 malicious ones alone give fresh documents a mean macro length
// that differs by a third between corpus seeds.
func campaignInputs(spec corpus.Spec, seed int64, n, warm int) (*inputs, error) {
	d := corpus.GenerateMacros(spec)
	g := &campaign{rng: rand.New(rand.NewSource(seed)), base: d.Sources()}
	in := &inputs{dataset: d}
	for i := 0; i < warm; i++ {
		k, err := g.add(in, g.freshSources(), true)
		if err != nil {
			return nil, err
		}
		in.warm = append(in.warm, k)
	}
	for i := 0; i < n; i++ {
		u := g.rng.Float64()
		switch {
		case i > 0 && u < campaignRepeatShare:
			in.stream = append(in.stream, in.stream[g.rng.Intn(i)])
		case i > 0 && u < campaignRepeatShare+campaignRepackagedShare:
			earlier := in.docs[in.stream[g.rng.Intn(i)]].sources
			k, err := g.add(in, earlier, false)
			if err != nil {
				return nil, err
			}
			in.stream = append(in.stream, k)
		default:
			k, err := g.add(in, g.freshSources(), true)
			if err != nil {
				return nil, err
			}
			in.stream = append(in.stream, k)
		}
	}
	return in, nil
}

// campaign is the seeded state of the campaign generator.
type campaign struct {
	rng  *rand.Rand
	base []string
	seq  int
}

// freshSources draws one or two base macros and makes each unique.
func (g *campaign) freshSources() []string {
	k := 1 + g.rng.Intn(2)
	out := make([]string, k)
	for i := range out {
		g.seq++
		out[i] = fmt.Sprintf("%s\r\n' campaign %d-%08x\r\n", g.base[g.rng.Intn(len(g.base))], g.seq, g.rng.Uint32())
	}
	return out
}

// add packages sources into a new legacy OLE document and appends it.
func (g *campaign) add(in *inputs, sources []string, fresh bool) (int, error) {
	data, err := packageOLE(g.rng, sources)
	if err != nil {
		return 0, fmt.Errorf("package campaign document: %w", err)
	}
	in.docs = append(in.docs, doc{
		name:    fmt.Sprintf("campaign_%05d.doc", len(in.docs)),
		data:    data,
		fresh:   fresh,
		sources: sources,
	})
	return len(in.docs) - 1, nil
}

// packageOLE builds a Word 97 document carrying the sources as modules,
// with a seeded filler body of about the malicious average size (Table II:
// 0.06 MB, scaled by the corpus' 1/10 file-size factor), so two packagings
// of the same macros differ in their bytes.
func packageOLE(rng *rand.Rand, sources []string) ([]byte, error) {
	proj := &ovba.Project{Name: "VBAProject"}
	for i, src := range sources {
		proj.Modules = append(proj.Modules, ovba.Module{Name: fmt.Sprintf("Module%d", i+1), Source: src})
	}
	b := cfb.NewBuilder()
	if err := proj.WriteTo(b, "Macros"); err != nil {
		return nil, err
	}
	filler := make([]byte, 2400+rng.Intn(7200))
	salt := byte(rng.Intn(256))
	for i := range filler {
		filler[i] = byte(i*31) + salt
	}
	if err := b.AddStream("WordDocument", filler); err != nil {
		return nil, err
	}
	return b.Bytes()
}

// perRequestFields are the response fields that legitimately differ
// between two answers for the same document: identities, timings, and
// which cache or backend served it.
var perRequestFields = []string{
	"request_id", "trace_id", "file", "cached", "backend", "shared_cache",
	"elapsed_ms", "stage_ms", "trace",
}

// normalizeVerdict reduces a scan response body to the fields that must
// be identical on every path: the report, or the error, of the document.
func normalizeVerdict(body []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("decode scan response: %w", err)
	}
	for _, k := range perRequestFields {
		delete(m, k)
	}
	return json.Marshal(m)
}

// verdictOf is the normalized verdict of an in-process report, shaped as
// the daemon would answer it.
func verdictOf(r *core.FileReport) ([]byte, error) {
	body, err := json.Marshal(server.ScanResponse{Report: r.JSON()})
	if err != nil {
		return nil, err
	}
	return normalizeVerdict(body)
}

// computeReferences fills every document's reference verdict with
// ScanFileCtx on det, using workers goroutines. Any scan error fails the
// set-up: workloads are built from documents on which no operation fails.
func computeReferences(ctx context.Context, det *core.Detector, docs []doc, workers int) error {
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(docs) || ctx.Err() != nil {
					return
				}
				rep, _, err := det.ScanFileCtx(ctx, docs[i].data)
				if err == nil {
					docs[i].ref, err = verdictOf(rep)
				}
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("reference scan of %s: %w", docs[i].name, err) })
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
