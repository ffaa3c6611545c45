package main

import (
	"context"
	"math"
	"math/rand"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// phase is the outcome of one measured loop.
type phase struct {
	attempted, failed int
	firstErr          error
	// lat holds one latency per attempted request; a failed request counts
	// as an infinite latency, so it misses any limit.
	lat     []time.Duration
	elapsed time.Duration
	// late is how far behind its schedule the open-loop generator handed
	// out each request.
	late []time.Duration
}

const failedLatency = time.Duration(math.MaxInt64)

func (p *phase) record(i int, lat time.Duration, err error) {
	p.add1(err)
	if err != nil {
		lat = failedLatency
	}
	p.lat[i] = lat
}

// add1 counts one more request, without a latency.
func (p *phase) add1(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
	}
}

// add records one more request.
func (p *phase) add(lat time.Duration, err error) {
	p.lat = append(p.lat, 0)
	p.record(len(p.lat)-1, lat, err)
}

func (p *phase) merge(o *phase) {
	p.attempted += o.attempted
	p.failed += o.failed
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// rate is completed requests per second.
func (p *phase) rate() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.attempted-p.failed) / p.elapsed.Seconds()
}

// systems hands a phase its entry points. A cyclic stream (no caches)
// keeps one entry point for every pass; a non-cyclic one gets a fresh
// entry point per pass, so each pass meets cold caches as the first did.
type systems struct {
	b     *bench
	spans *spanStore // traced entry points when non-nil
	cur   front      // the open entry point, if any
	// observe, when set, sees the entry point before each pass (after
	// false) and after it (after true), for counter scrapes.
	observe func(f front, after bool) error
}

func (s *systems) next(ctx context.Context) (front, error) {
	if s.cur == nil {
		f, err := s.b.start(ctx, s.spans)
		if err != nil {
			return nil, err
		}
		s.cur = f
	}
	if s.observe != nil {
		if err := s.observe(s.cur, false); err != nil {
			return nil, err
		}
	}
	return s.cur, nil
}

func (s *systems) done() error {
	var err error
	if s.observe != nil {
		err = s.observe(s.cur, true)
	}
	if !s.b.in.cyclic {
		s.close()
	}
	return err
}

// close stops the open entry point.
func (s *systems) close() {
	if s.cur != nil {
		s.cur.close()
		s.cur = nil
	}
}

// closedLoop runs `clients` callers that each send their next request as
// soon as the previous one is answered, for dur. A non-cyclic stream is
// replayed in passes, each on a fresh entry point; elapsed counts only
// the time spent inside passes.
func closedLoop(ctx context.Context, sys *systems, in *inputs, clients int, dur time.Duration) (*phase, error) {
	out := &phase{}
	deadline := time.Now().Add(dur)
	for {
		f, err := sys.next(ctx)
		if err != nil {
			return nil, err
		}
		pass := closedPass(ctx, f, in, clients, deadline)
		if err := sys.done(); err != nil {
			return nil, err
		}
		out.merge(pass)
		out.lat = append(out.lat, pass.lat...)
		out.elapsed += pass.elapsed
		if in.cyclic || !time.Now().Before(deadline) || ctx.Err() != nil {
			return out, nil
		}
	}
}

func closedPass(ctx context.Context, f front, in *inputs, clients int, deadline time.Time) *phase {
	var next atomic.Int64
	limit := in.streamLen()
	start := time.Now()
	parts := make([]*phase, clients)
	var wg sync.WaitGroup
	for c := range parts {
		part := &phase{}
		parts[c] = part
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if limit >= 0 && i >= limit {
					return
				}
				t := time.Now()
				err := check(ctx, f, in.docAt(i))
				part.add(time.Since(t), err)
			}
		}()
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(start)}
	for _, part := range parts {
		out.merge(part)
		out.lat = append(out.lat, part.lat...)
	}
	return out
}

// minP99Samples is the smallest sample that supports a p99 with ten
// samples beyond it.
const minP99Samples = 1000

// openLoop sends n requests on a Poisson schedule at `rate` per second,
// regardless of when earlier ones finish. At most `conns` requests are in
// flight; a request due while all are busy waits in the generator's
// queue, and its latency counts from when it was due. A non-cyclic stream
// is replayed in passes as in closedLoop, the schedule resuming on each
// fresh entry point.
func openLoop(ctx context.Context, sys *systems, in *inputs, conns int, rate float64, n int, rng *rand.Rand) (*phase, error) {
	out := &phase{}
	for sent := 0; sent < n && ctx.Err() == nil; {
		k := n - sent
		if limit := in.streamLen(); limit >= 0 {
			k = min(k, limit)
		}
		f, err := sys.next(ctx)
		if err != nil {
			return nil, err
		}
		pass := openPass(ctx, f, in, conns, rate, k, rng)
		if err := sys.done(); err != nil {
			return nil, err
		}
		out.merge(pass)
		out.lat = append(out.lat, pass.lat...)
		out.late = append(out.late, pass.late...)
		out.elapsed += pass.elapsed
		sent += k
	}
	return out, nil
}

func openPass(ctx context.Context, f front, in *inputs, conns int, rate float64, n int, rng *rand.Rand) *phase {
	due := make([]time.Duration, n)
	var at float64
	for i := range due {
		at += rng.ExpFloat64() / rate
		due[i] = time.Duration(at * float64(time.Second))
	}
	p := &phase{lat: make([]time.Duration, n), late: make([]time.Duration, n)}
	queue := make(chan int, n) // sized to the number of sends: the generator never blocks
	start := time.Now()
	go func() {
		defer close(queue)
		for i := range due {
			when := start.Add(due[i])
			if wait := time.Until(when); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return
				}
			}
			p.late[i] = time.Since(when)
			queue <- i
		}
	}()
	parts := make([]*phase, conns)
	var wg sync.WaitGroup
	for c := range parts {
		part := &phase{lat: p.lat} // disjoint indices per request
		parts[c] = part
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				err := check(ctx, f, in.docAt(i))
				part.record(i, time.Since(start.Add(due[i])), err)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	for _, part := range parts {
		p.merge(part)
	}
	return p
}

// tailLadder is the percentile ladder, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// rank is the 1-based nearest-rank position of quantile q among n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailQuantile is the highest ladder percentile not above want that has
// at least ten samples beyond it; ok is false when even the median has
// fewer.
func tailQuantile(n int, want float64) (q float64, ok bool) {
	for _, q := range tailLadder {
		if q <= want && n-rank(q, n) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// quantileOf is the nearest-rank q-quantile of the samples.
func quantileOf(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(q, len(s))-1]
}

// heapSampler tracks the peak of live heap object bytes.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return
		}
		v := sample[0].Value.Uint64()
		for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
		}
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// take returns the peak since the last take and starts a new one.
func (h *heapSampler) take() uint64 { return h.peak.Swap(0) }

// finish stops the sampler.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}
