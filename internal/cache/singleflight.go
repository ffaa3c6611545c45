package cache

import "sync"

// flightCall is one in-progress computation shared by every concurrent
// caller asking for the same key.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
	// waiters counts the followers parked on done (guarded by Flight.mu).
	waiters int
}

// Flight collapses concurrent duplicate work: while one caller (the
// leader) computes the value for a key, followers asking for the same key
// block and share the leader's result instead of recomputing it. Results
// are not retained once the leader returns — this is request collapsing,
// not a cache. The zero value is ready to use.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[Key]*flightCall[V]
}

// Do runs fn for k unless an identical call is already in flight, in which
// case it waits for that call and returns its result. The third result
// reports whether this caller was the leader (the one that actually ran
// fn) — callers that hold per-request resources use it to decide who owns
// cleanup.
func (f *Flight[V]) Do(k Key, fn func() (V, error)) (v V, err error, leader bool) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[Key]*flightCall[V])
	}
	if c, ok := f.calls[k]; ok {
		c.waiters++
		f.mu.Unlock()
		<-c.done
		return c.val, c.err, false
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[k] = c
	f.mu.Unlock()

	c.val, c.err = fn()

	f.mu.Lock()
	delete(f.calls, k)
	f.mu.Unlock()
	close(c.done)
	return c.val, c.err, true
}

// waiting reports how many followers have joined the call in flight for
// k (0 when none is in flight).
func (f *Flight[V]) waiting(k Key) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[k]; ok {
		return c.waiters
	}
	return 0
}
