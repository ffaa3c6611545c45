package cache

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

func keyN(n int) Key { return KeyOfString(fmt.Sprintf("key-%d", n)) }

func TestKeyOfStringMatchesKeyOf(t *testing.T) {
	for _, s := range []string{"", "a", "Sub Foo()\nEnd Sub", string(make([]byte, 4096))} {
		if KeyOfString(s) != KeyOf([]byte(s)) {
			t.Fatalf("KeyOfString(%q) differs from KeyOf of the same bytes", s)
		}
	}
}

// With a small entry capacity the cache collapses to a single shard, so
// eviction must follow exact global LRU order.
func TestEvictionOrder(t *testing.T) {
	c := New[int](3, 0)
	for i := 0; i < 3; i++ {
		c.Put(keyN(i), i, 1)
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	if v, ok := c.Get(keyN(0)); !ok || v != 0 {
		t.Fatalf("Get(0) = %d, %v; want 0, true", v, ok)
	}
	c.Put(keyN(3), 3, 1)
	if _, ok := c.Get(keyN(1)); ok {
		t.Fatalf("key 1 should have been evicted as LRU")
	}
	for _, want := range []int{0, 2, 3} {
		if v, ok := c.Get(keyN(want)); !ok || v != want {
			t.Fatalf("Get(%d) = %d, %v; want hit", want, v, ok)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
}

func TestByteCapacityAccounting(t *testing.T) {
	c := New[string](0, 100)
	c.Put(keyN(0), "a", 40)
	c.Put(keyN(1), "b", 40)
	if got := c.SizeBytes(); got != 80 {
		t.Fatalf("SizeBytes = %d, want 80", got)
	}
	// Updating an entry in place must adjust the byte total, not add.
	c.Put(keyN(0), "a2", 10)
	if got := c.SizeBytes(); got != 50 {
		t.Fatalf("SizeBytes after resize = %d, want 50", got)
	}
	// Pushing past the cap evicts the LRU entry (key 1 — key 0 was just
	// refreshed by its Put).
	c.Put(keyN(2), "c", 60)
	if got := c.SizeBytes(); got > 100 {
		t.Fatalf("SizeBytes = %d exceeds the 100-byte cap", got)
	}
	if _, ok := c.Get(keyN(1)); ok {
		t.Fatalf("key 1 should have been evicted by byte pressure")
	}
	if _, ok := c.Get(keyN(0)); !ok {
		t.Fatalf("key 0 should have survived")
	}
	// An entry that can never fit is refused outright instead of flushing
	// the shard.
	before := c.Len()
	c.Put(keyN(3), "huge", 1000)
	if _, ok := c.Get(keyN(3)); ok {
		t.Fatalf("oversized entry should not have been admitted")
	}
	if c.Len() != before {
		t.Fatalf("oversized Put changed occupancy: %d -> %d", before, c.Len())
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache[int]
	c.Put(keyN(0), 1, 1)
	if _, ok := c.Get(keyN(0)); ok {
		t.Fatalf("nil cache returned a hit")
	}
	if c.Len() != 0 || c.SizeBytes() != 0 {
		t.Fatalf("nil cache reports occupancy")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", st)
	}
	if New[int](0, 0) != nil {
		t.Fatalf("New with no bounds should return nil (disabled)")
	}
}

func TestSingleflightCollapses(t *testing.T) {
	var f Flight[int]
	var calls atomic.Int32
	release := make(chan struct{})
	const n = 16

	var wg sync.WaitGroup
	leaders := make(chan bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, leader := f.Do(keyN(0), func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v; want 42, nil", v, err)
			}
			leaders <- leader
		}()
	}
	// Release the leader only once every follower has joined its call;
	// a goroutine that reached Do after the release would lead a new one.
	for f.waiting(keyN(0)) < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	close(leaders)

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	nLeaders := 0
	for l := range leaders {
		if l {
			nLeaders++
		}
	}
	if nLeaders != 1 {
		t.Fatalf("%d callers claimed leadership, want exactly 1", nLeaders)
	}

	// After the flight lands, a new call runs fn again.
	_, _, leader := f.Do(keyN(0), func() (int, error) { calls.Add(1); return 7, nil })
	if !leader || calls.Load() != 2 {
		t.Fatalf("post-flight call should run fresh as leader")
	}
}

// Concurrent hit/miss churn across shards; meaningful under -race, and the
// invariants (occupancy within bounds, hits+misses == gets) must hold.
func TestConcurrentChurn(t *testing.T) {
	const (
		maxEntries = 256
		maxBytes   = 64 * 1024
		workers    = 8
		opsEach    = 4000
	)
	c := New[int](maxEntries, maxBytes)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := uint64(seed)*2654435761 + 1
			for i := 0; i < opsEach; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				k := keyN(int(rng % 512))
				if rng&1 == 0 {
					c.Put(k, int(rng), int64(rng%300))
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Len(); got > maxEntries {
		t.Fatalf("entries %d exceed cap %d", got, maxEntries)
	}
	if got := c.SizeBytes(); got > maxBytes {
		t.Fatalf("bytes %d exceed cap %d", got, maxBytes)
	}
	st := c.Stats()
	var gets int64
	// Every Get increments exactly one of hits/misses.
	gets = st.Hits + st.Misses
	if gets == 0 {
		t.Fatalf("churn recorded no gets")
	}
	if st.Entries != int64(c.Len()) || st.Bytes != c.SizeBytes() {
		t.Fatalf("stats snapshot inconsistent with live occupancy: %+v", st)
	}
}

func TestRegisterMetrics(t *testing.T) {
	c := New[int](64, 0)
	c.Put(keyN(0), 1, 8)
	c.Get(keyN(0))
	c.Get(keyN(1))

	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg, "doc_cache")
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	buf := out.Bytes()
	sum, err := telemetry.ParseExposition(buf)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf)
	}
	for name, typ := range map[string]string{
		"doc_cache_hits":      "counter",
		"doc_cache_misses":    "counter",
		"doc_cache_evictions": "counter",
		"doc_cache_entries":   "gauge",
		"doc_cache_bytes":     "gauge",
	} {
		if sum.Families[name] != typ {
			t.Fatalf("family %s = %q, want %q\n%s", name, sum.Families[name], typ, buf)
		}
	}
}
