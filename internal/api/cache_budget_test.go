package api

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Get is the string-keyed lookup the cache tests use: a hit counts and
// refreshes the entry exactly as the serving paths' lookups do.
func (c *responseCache) Get(key string) ([]byte, bool) {
	body, _, ok := lookup(c, hashKey(key), key)
	return body, ok
}

// bodyForBudgetKey derives a ~300-byte body from its key so any entry found
// in the cache can be verified against its key alone, no matter how many
// evictions it survived.
func bodyForBudgetKey(key string) []byte {
	return []byte(fmt.Sprintf(`{"key":%q,"pad":%q}`, key, strings.Repeat(key, 280/len(key))))
}

// auditShardBudgets walks every shard and checks the byte-budget invariants
// every resident entry must respect: the shard's resident bytes never exceed
// its per-shard budget, and the bytes account reconciles exactly with the
// sum of its entries' costs. It returns the audited totals.
func auditShardBudgets(t *testing.T, c *responseCache) (entries int, bytesTotal int64) {
	t.Helper()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if sh.byteBudget > 0 && sh.bytes > sh.byteBudget {
			sh.mu.Unlock()
			t.Fatalf("shard %d holds %d bytes over its budget %d", i, sh.bytes, sh.byteBudget)
		}
		var sum int64
		for el := sh.order.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			sum += entryCost(e.key, e.body)
			if !bytes.Equal(e.body, bodyForBudgetKey(e.key)) {
				sh.mu.Unlock()
				t.Fatalf("shard %d entry %q corrupted", i, e.key)
			}
		}
		if sum != sh.bytes {
			sh.mu.Unlock()
			t.Fatalf("shard %d bytes account drifted: recorded %d, recomputed %d", i, sh.bytes, sum)
		}
		entries += sh.order.Len()
		bytesTotal += sh.bytes
		sh.mu.Unlock()
	}
	return entries, bytesTotal
}

// TestFixedGeometryUnderByteBudget is the -race contract for the sharded
// cache with the byte budget ACTIVE (small enough that evictions run
// throughout): under concurrent lookups and fills every shard must respect
// its budget with an exactly-reconciling bytes account, bodies must stay
// key-consistent, and a concurrent herd on a fresh key must still evaluate
// exactly once per key while budget evictions interleave with the flights.
func TestFixedGeometryUnderByteBudget(t *testing.T) {
	const (
		keyspace   = 1024
		goroutines = 8
		iters      = 300
		budget     = 64 << 10 // holds ~200 of the ~330-byte entries: evictions guaranteed
	)
	c := newCache(cacheOptions{entries: 4096, maxBytes: budget, coalesce: true})
	if len(c.shards) != cacheMaxShards {
		t.Fatalf("shards = %d, want the automatic %d", len(c.shards), cacheMaxShards)
	}

	// Phase 1 — concurrent traffic while the budget evicts. Keys may be
	// legitimately re-evaluated here (the budget evicts them between visits),
	// so correctness is body-vs-key, not eval counts.
	fillKey := func(key string) ([]byte, error) {
		h := hashKey(key)
		if body, _, ok := lookup(c, h, key); ok {
			return body, nil
		}
		body, _, _, err := fill(c, h, key, func() ([]byte, int64, error) {
			return bodyForBudgetKey(key), 0, nil
		})
		return body, err
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				key := fmt.Sprintf("budget|%04d", (g+it*goroutines)%keyspace)
				body, err := fillKey(key)
				if err != nil {
					t.Errorf("fill %s: %v", key, err)
					return
				}
				if !bytes.Equal(body, bodyForBudgetKey(key)) {
					t.Errorf("key %s served wrong body", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	evicted := c.counters().evicted
	if evicted == 0 {
		t.Fatalf("no evictions with a %d-byte budget: the budget was never active", budget)
	}
	if _, total := auditShardBudgets(t, c); total > budget {
		t.Fatalf("resident bytes %d exceed the cache budget %d", total, budget)
	}

	// Phase 2 — herd rounds: all goroutines fill one fresh key concurrently
	// and it must evaluate exactly once, its admission evicting cold entries
	// from a full shard. Fills of old keys between rounds keep the budget
	// evicting across every shard.
	const herdRounds = 64
	var herdEvals [herdRounds]atomic.Int64
	for round := 0; round < herdRounds; round++ {
		key := fmt.Sprintf("budget|herd-%04d", round)
		h := hashKey(key)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body, _, _, err := fill(c, h, key, func() ([]byte, int64, error) {
					herdEvals[round].Add(1)
					return bodyForBudgetKey(key), 0, nil
				})
				if err != nil {
					t.Errorf("herd fill %s: %v", key, err)
					return
				}
				if !bytes.Equal(body, bodyForBudgetKey(key)) {
					t.Errorf("herd key %s served wrong body", key)
				}
			}()
		}
		wg.Wait()
		for i := 0; i < 32; i++ {
			if _, err := fillKey(fmt.Sprintf("budget|%04d", round*32+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := range herdEvals {
		if n := herdEvals[round].Load(); n != 1 {
			t.Fatalf("herd round %d evaluated %d times, want exactly once", round, n)
		}
	}
	if c.counters().evicted == evicted {
		t.Fatal("no evictions during the herd rounds: the budget went idle")
	}
	if _, total := auditShardBudgets(t, c); total > budget {
		t.Fatalf("resident bytes %d exceed the cache budget %d after the herds", total, budget)
	}
}
