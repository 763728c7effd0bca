package api

import (
	"strings"
	"sync"
	"sync/atomic"

	"hetero/internal/spill"
)

// Spill-tier wiring: internal/spill is the bounded on-disk second-level
// cache under the in-memory response caches. Each memory layer gets an
// eviction sink that offers the evicted (key, body) to a bounded queue;
// one background writer drains it into the store. Reads consult the
// store inside the singleflight fill closures — after every in-memory
// layer, before peer fetch and before local evaluation — so a spill hit
// is promoted back into memory by the normal fill insert and pushed to
// no peer. Keys are namespaced with one layer byte so the three memory
// layers can never alias each other on disk.
const (
	spillLayerCanonical byte = 'c' // canonical measure cache keys
	spillLayerRaw       byte = 'r' // raw-query front keys (incl. compare/speedup prefixes)
	spillLayerBatch     byte = 'b' // /v1/batch raw body-front keys

	// spillQueueEntries and spillQueueMaxBytes bound the evict hand-off
	// queue; beyond either, evictions are dropped (counted) rather than
	// ever blocking a shard lock.
	spillQueueEntries  = 256
	spillQueueMaxBytes = 64 << 20

	// spillFlushMaxBytes bounds the best-effort shutdown flush of
	// still-resident memory entries in write-through mode: CloseSpill
	// stops offering once this many body+key bytes have been handed to
	// the store, so a huge memory tier can't stall a drain indefinitely.
	// Entries already spilled dedupe inside store.Put, so the common
	// warm-shutdown flush touches far less than this ceiling.
	spillFlushMaxBytes = 256 << 20
)

type spillItem struct {
	layer byte
	key   string
	body  []byte
}

// spillTier owns the background evict writer in front of a spill.Store.
type spillTier struct {
	store        *spill.Store
	queue        chan spillItem
	queuedBytes  atomic.Int64
	drops        atomic.Uint64
	failedWrites atomic.Uint64 // store.Put returned false in writeLoop
	flushed      atomic.Uint64 // entries flushed durably by CloseSpill
	writeThrough bool
	closeOnce    sync.Once
	done         chan struct{}
	// closeMu orders late evictions against queue close: offer holds it
	// shared around the send, CloseSpill exclusively around the close.
	closeMu sync.RWMutex
	closed  bool
}

// SpillOptions configures the spill tier's wiring to the memory layers.
type SpillOptions struct {
	// WriteThrough offers every memory-tier insert to the spill queue at
	// admission time (not only on eviction) and adds a bounded
	// best-effort flush of still-resident entries during CloseSpill, so
	// a warm restart re-serves the working set from segment recovery
	// with zero re-evaluations. Off by default: write-through turns the
	// spill writer into a firehose sized to the insert rate, which only
	// pays off when restarts are routine (rolling fleet deploys).
	WriteThrough bool
}

// EnableSpill attaches store as the evict-to-disk tier under every
// response-cache layer. Call before serving traffic; pair with
// CloseSpill on shutdown (after the HTTP server has drained). The
// server takes ownership: CloseSpill closes the store.
func (s *Server) EnableSpill(store *spill.Store) {
	s.EnableSpillOptions(store, SpillOptions{})
}

// EnableSpillOptions is EnableSpill with explicit options (write-through
// durability mode for heterod's -spill-write-through flag).
func (s *Server) EnableSpillOptions(store *spill.Store, opts SpillOptions) {
	t := &spillTier{
		store:        store,
		queue:        make(chan spillItem, spillQueueEntries),
		done:         make(chan struct{}),
		writeThrough: opts.WriteThrough,
	}
	go t.writeLoop()
	s.spill = t
	s.cache.setEvictSink(func(key string, body []byte) { t.offer(spillLayerCanonical, key, body) })
	s.rawCache.setEvictSink(func(key string, body []byte) { t.offer(spillLayerRaw, key, body) })
	s.batchRawCache.setEvictSink(func(key string, body []byte) { t.offer(spillLayerBatch, key, body) })
	if opts.WriteThrough {
		s.cache.setInsertSink(func(key string, body []byte) { t.offer(spillLayerCanonical, key, body) })
		s.rawCache.setInsertSink(func(key string, body []byte) { t.offer(spillLayerRaw, key, body) })
		s.batchRawCache.setInsertSink(func(key string, body []byte) { t.offer(spillLayerBatch, key, body) })
	}
}

// CloseSpill stops the evict writer (draining queued entries), flushes
// still-resident memory entries in write-through mode (bounded by
// spillFlushMaxBytes), and closes the store. Call after the HTTP server
// has stopped accepting requests. No-op when spill is off.
func (s *Server) CloseSpill() {
	t := s.spill
	if t == nil {
		return
	}
	t.closeOnce.Do(func() {
		t.closeMu.Lock()
		t.closed = true
		close(t.queue)
		t.closeMu.Unlock()
		<-t.done
		if t.writeThrough {
			s.flushResident(t)
		}
		t.store.Close()
	})
}

// flushResident offers every still-resident memory entry to the store
// directly (the queue is closed by now), best-effort and bounded: the
// write-through queue already carried the steady state to disk, so this
// pass exists to catch entries whose offers were dropped at the queue
// bound. References are snapshotted under the shard locks (bodies are
// immutable) and written after, so no disk I/O runs under a lock.
func (s *Server) flushResident(t *spillTier) {
	var pending []spillItem
	var budget int64 = spillFlushMaxBytes
	snapshot := func(layer byte) func(key string, body []byte) bool {
		return func(key string, body []byte) bool {
			cost := int64(len(key) + len(body))
			if cost > budget {
				return false
			}
			budget -= cost
			pending = append(pending, spillItem{layer: layer, key: key, body: body})
			return true
		}
	}
	s.cache.forEachEntry(snapshot(spillLayerCanonical))
	s.rawCache.forEachEntry(snapshot(spillLayerRaw))
	s.batchRawCache.forEachEntry(snapshot(spillLayerBatch))
	for _, it := range pending {
		if t.store.Put(spillKey(it.layer, it.key), it.body) {
			t.flushed.Add(1)
		} else {
			t.failedWrites.Add(1)
		}
	}
}

// offer hands an evicted (or, in write-through mode, freshly admitted)
// entry to the writer without ever blocking: it runs under a cache shard
// lock. Over-full queues drop (counted). The byte bound is reserved with
// an atomic add BEFORE the send and undone on every rejection path —
// a load-then-add check would let concurrent offers each observe room
// and overshoot the bound together.
func (t *spillTier) offer(layer byte, key string, body []byte) {
	cost := int64(len(key) + len(body))
	if t.queuedBytes.Add(cost) > spillQueueMaxBytes {
		t.queuedBytes.Add(-cost)
		t.drops.Add(1)
		return
	}
	t.closeMu.RLock()
	defer t.closeMu.RUnlock()
	if t.closed {
		t.queuedBytes.Add(-cost)
		t.drops.Add(1)
		return
	}
	select {
	case t.queue <- spillItem{layer: layer, key: key, body: body}:
	default:
		t.queuedBytes.Add(-cost)
		t.drops.Add(1)
	}
}

func (t *spillTier) writeLoop() {
	defer close(t.done)
	for it := range t.queue {
		if !t.store.Put(spillKey(it.layer, it.key), it.body) {
			t.failedWrites.Add(1)
		}
		t.queuedBytes.Add(-int64(len(it.key) + len(it.body)))
	}
}

func spillKey(layer byte, key string) string {
	return string(layer) + key
}

// spillBatchKey builds the batch-layer store key straight from the raw
// body bytes in a single allocation — the only O(body) allocation on the
// streamed spill-hit path (the peak-memory bound benchserve certifies).
func spillBatchKey(body []byte) string {
	var b strings.Builder
	b.Grow(1 + len(body))
	b.WriteByte(spillLayerBatch)
	b.Write(body)
	return b.String()
}

// spillGet consults the disk tier for a memory-layer key. Callers sit
// inside a singleflight fill closure, so a hit is promoted back into
// the memory tier by the insert that follows the closure's return.
func (s *Server) spillGet(layer byte, key string) ([]byte, bool) {
	t := s.spill
	if t == nil {
		return nil, false
	}
	return t.store.Get(spillKey(layer, key))
}

// spillOpenStream pins a CRC-verified streaming handle for a batch-layer
// key so the streamed render path can serve the body fragment-by-
// fragment in O(chunk) memory. nil when spill is off or the key misses.
func (s *Server) spillOpenStream(key string) (*spill.Entry, bool) {
	return s.spillOpenStreamKey(spillKey(spillLayerBatch, key))
}

// spillOpenStreamKey is spillOpenStream for a pre-built store key
// (spillBatchKey), sparing the hit path a second O(body) copy.
func (s *Server) spillOpenStreamKey(storeKey string) (*spill.Entry, bool) {
	t := s.spill
	if t == nil {
		return nil, false
	}
	return t.store.OpenVerified(storeKey)
}

// spillBegin starts a streamed tee of a batch response into the spill
// tier; nil when spill is off (callers must tolerate nil).
func (s *Server) spillBegin(key string) *spill.Appender {
	return s.spillBeginKey(spillKey(spillLayerBatch, key))
}

// spillBeginKey is spillBegin for a pre-built store key (spillBatchKey).
func (s *Server) spillBeginKey(storeKey string) *spill.Appender {
	t := s.spill
	if t == nil {
		return nil
	}
	return t.store.Begin(storeKey)
}

// SpillStats is the /v1/statz view of the on-disk spill tier.
type SpillStats struct {
	Enabled          bool   `json:"enabled"`
	WriteThrough     bool   `json:"write_through"`
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	Writes           uint64 `json:"writes"`
	DroppedWrites    uint64 `json:"dropped_writes"` // offers dropped at the hand-off queue
	FailedWrites     uint64 `json:"failed_writes"`  // store.Put failures in the writer/flush
	FlushedWrites    uint64 `json:"flushed_writes"` // entries the shutdown flush made durable
	Rejected         uint64 `json:"rejected"`       // entries over the whole disk budget
	Corrupt          uint64 `json:"corrupt"`        // CRC failures read as misses
	RetiredSegments  uint64 `json:"retired_segments"`
	Compactions      uint64 `json:"compactions"`
	CompactDeferred  uint64 `json:"compact_deferred"`  // kicks coalesced behind an in-progress pass
	CompactThrottles uint64 `json:"compact_throttles"` // rate-budget sleeps in the compactor
	CompactedBytes   uint64 `json:"compacted_bytes"`   // live bytes rewritten by compaction
	Segments         int    `json:"segments"`
	Entries          int    `json:"entries"`
	Bytes            int64  `json:"bytes"`
	DeadBytes        int64  `json:"dead_bytes"`
	MaxBytes         int64  `json:"max_bytes"`
	IndexBytes       int64  `json:"index_bytes"`
	MaxIndexBytes    int64  `json:"max_index_bytes"`
}

// SpillStatsNow snapshots the spill tier's statz block (zero value when
// the tier is off) — the handle cmd/benchserve's sweep regime asserts hit
// and corruption counters through, like Cluster().Stats() for the fleet.
func (s *Server) SpillStatsNow() SpillStats { return s.spillStats() }

func (s *Server) spillStats() SpillStats {
	t := s.spill
	if t == nil {
		return SpillStats{}
	}
	st := t.store.Stats()
	return SpillStats{
		Enabled:          true,
		WriteThrough:     t.writeThrough,
		Hits:             st.Hits,
		Misses:           st.Misses,
		Writes:           st.Writes,
		DroppedWrites:    t.drops.Load(),
		FailedWrites:     t.failedWrites.Load(),
		FlushedWrites:    t.flushed.Load(),
		Rejected:         st.Rejected,
		Corrupt:          st.Corrupt,
		RetiredSegments:  st.RetiredSegments,
		Compactions:      st.Compactions,
		CompactDeferred:  st.CompactDeferred,
		CompactThrottles: st.CompactThrottles,
		CompactedBytes:   st.CompactedBytes,
		Segments:         st.Segments,
		Entries:          st.Entries,
		Bytes:            st.DiskBytes,
		DeadBytes:        st.DeadBytes,
		MaxBytes:         st.MaxBytes,
		IndexBytes:       st.IndexBytes,
		MaxIndexBytes:    st.MaxIndexBytes,
	}
}
