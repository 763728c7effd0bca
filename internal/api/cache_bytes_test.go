package api

import (
	"bytes"
	"fmt"
	"testing"
)

// TestCacheByteBudgetEviction: with a single shard and a tight byte budget,
// resident bytes must never exceed the budget, eviction must proceed from
// the cold end, and the bytes account must track every removal exactly.
func TestCacheByteBudgetEviction(t *testing.T) {
	c := newCache(cacheOptions{entries: 100, maxBytes: 100, shards: 1, coalesce: true})
	body := bytes.Repeat([]byte("x"), 27) // cost = 3 (key) + 27 = 30 per entry
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%02d", i), body)
		if ct := c.counters(); ct.bytes > 100 {
			t.Fatalf("after insert %d: resident bytes %d exceed budget 100", i, ct.bytes)
		}
	}
	ct := c.counters()
	if ct.size != 3 || ct.bytes != 90 {
		t.Fatalf("size %d bytes %d, want 3 entries / 90 bytes (floor(100/30))", ct.size, ct.bytes)
	}
	if ct.evicted != 7 {
		t.Fatalf("evicted %d, want 7", ct.evicted)
	}
	// LRU: only the three hottest keys survive.
	if _, ok := c.Get("k00"); ok {
		t.Fatal("coldest entry survived byte-budget eviction")
	}
	for _, k := range []string{"k07", "k08", "k09"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("hot entry %s evicted", k)
		}
	}
}

// TestCacheOversizedEntryRejected: an entry whose own cost exceeds the
// shard's whole byte budget must be rejected (counted, not inserted), and a
// stale smaller entry under the same key must be dropped rather than served.
func TestCacheOversizedEntryRejected(t *testing.T) {
	c := newCache(cacheOptions{entries: 10, maxBytes: 50, shards: 1, coalesce: true})
	c.Put("key", []byte("small"))
	if _, ok := c.Get("key"); !ok {
		t.Fatal("small entry not admitted")
	}
	c.Put("key", bytes.Repeat([]byte("y"), 200))
	if _, ok := c.Get("key"); ok {
		t.Fatal("oversized update left a stale body readable")
	}
	ct := c.counters()
	if ct.rejected != 1 {
		t.Fatalf("rejected %d, want 1", ct.rejected)
	}
	if ct.bytes != 0 || ct.size != 0 {
		t.Fatalf("rejection leaked residency: %d entries / %d bytes", ct.size, ct.bytes)
	}
}

// TestCacheUpdateInPlaceAdjustsBytes: re-putting a key with a different body
// size must adjust the bytes account by the delta, not double-count the key.
func TestCacheUpdateInPlaceAdjustsBytes(t *testing.T) {
	c := newCache(cacheOptions{entries: 10, maxBytes: 1000, shards: 1, coalesce: true})
	c.Put("k", bytes.Repeat([]byte("a"), 40))
	if ct := c.counters(); ct.bytes != 41 {
		t.Fatalf("bytes %d, want 41", ct.bytes)
	}
	c.Put("k", bytes.Repeat([]byte("b"), 10))
	ct := c.counters()
	if ct.bytes != 11 || ct.size != 1 {
		t.Fatalf("after shrink: %d entries / %d bytes, want 1 / 11", ct.size, ct.bytes)
	}
}

// TestServerCacheStaysUnderByteBudget is the acceptance-criterion memory
// regression test: a hostile large-n workload (hundreds of distinct
// profiles, plus some whose single entry exceeds any shard budget) against
// a server with a small -cache-bytes budget must keep every cache layer's
// resident bytes under the budget at all times, with evictions and
// rejections doing the bounding — not growth.
func TestServerCacheStaysUnderByteBudget(t *testing.T) {
	const budget = 64 << 10
	s := NewServerWithCache(CacheConfig{Entries: 256, MaxBytes: budget, Coalesce: true})
	checkBudgets := func(step string) {
		t.Helper()
		for name, c := range map[string]*responseCache{
			"canonical": s.cache, "raw": s.rawCache, "batchRaw": s.batchRawCache,
		} {
			if ct := c.counters(); ct.bytes > budget {
				t.Fatalf("%s: %s cache resident bytes %d exceed budget %d", step, name, ct.bytes, budget)
			}
		}
	}
	// Distinct medium profiles: admissible per shard, collectively far over
	// budget, so the byte bound must evict.
	for i := 0; i < 300; i++ {
		status, _ := s.MeasureQuery(measureQueryFor(randomRhos(64, uint64(1000+i))))
		if status != 200 {
			t.Fatalf("measure %d: status %d", i, status)
		}
		checkBudgets(fmt.Sprintf("medium %d", i))
	}
	// Hostile large-n queries: each canonical and raw entry exceeds any
	// shard's budget outright and must be rejected, not admitted.
	for i := 0; i < 8; i++ {
		status, _ := s.MeasureQuery(measureQueryFor(randomRhos(2048, uint64(2000+i))))
		if status != 200 {
			t.Fatalf("large measure %d: status %d", i, status)
		}
		checkBudgets(fmt.Sprintf("large %d", i))
	}
	// Distinct large batch bodies exercise the batch raw front the same way.
	for i := 0; i < 6; i++ {
		body := marshalBatch(t, [][]float64{randomRhos(256, uint64(3000+i)), randomRhos(256, uint64(3100+i))})
		if len(body) < batchRawMinBody {
			t.Fatalf("batch body %d too small (%d bytes) to engage the raw front", i, len(body))
		}
		if status, _, msg := s.BatchBody(body); status != 200 {
			t.Fatalf("batch %d: status %d: %s", i, status, msg)
		}
		checkBudgets(fmt.Sprintf("batch %d", i))
	}
	canon := s.cache.counters()
	if canon.evicted == 0 {
		t.Fatal("no evictions under a workload far over budget: the byte bound is not enforced")
	}
	if canon.rejected == 0 {
		t.Fatal("no rejections from over-budget large-n entries")
	}
}
