package api

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"hetero/internal/incr"
	"hetero/internal/model"
	"hetero/internal/profile"
)

// The cross-request coalescing admission batcher. Singleflight collapses
// concurrent misses for one key; this layer collapses concurrent misses for
// *different* keys into shared flushes, because herd traffic that misses on
// distinct keys still overlaps enormously: the paper's §4.3 sensitivity
// sweeps issue one parameter point per request over a shared fleet profile,
// and §3's what-if scans perturb one machine of a common base. A flush
// groups items by profile content and pays the profile-sized costs — decode,
// profile moments, response echo — once per distinct
// profile instead of once per request; each item then costs one
// parameter-dependent log-product scan plus its body assembly, and the whole
// flush is one incr dispatch instead of one per miss.
//
// Wiring (see measurepath.go): the batcher sits *under* the existing
// singleflight layers, inside their compute closures, so exactly-once-per-key
// semantics are untouched. Small queries submit after parse + canonical
// lookup, from inside the canonical cache's fill closure (the submitter is
// that key's flight leader). Large queries submit their raw query string
// from inside the raw front's fill closure — before any parsing — so the
// flush can share the decode itself. Responses are byte-identical to the
// uncoalesced path: the flush uses the same parse helpers, the same
// JSON renderer and incr helpers that are
// bit-identical to MeasureProfile (see internal/incr/coalesce.go).
//
// Flush policy is the classic bounded batcher: a bounded in-channel, flush
// when MaxBatch items pend or the oldest has waited MaxWait, whichever comes
// first. Every item carries its own buffered response channel; a full queue
// or a draining batcher rejects the submit and the caller falls back to the
// inline path, so the batcher can only ever add bounded latency, never
// unavailability.

// Default admission-batcher tuning: flushes of up to 64 items, sealed after
// at most 2ms — the latency bound a coalesced miss can pay on top of its own
// evaluation. The queue holds a few flushes' worth of items so submitters
// ahead of a slow flush keep their fast-fallback behavior instead of
// blocking.
const (
	DefaultCoalesceMaxBatch = 64
	DefaultCoalesceMaxWait  = 2 * time.Millisecond
)

// CoalesceConfig tunes the admission batcher enabled by EnableCoalesce.
type CoalesceConfig struct {
	// MaxBatch seals a flush at this many items; 0 means
	// DefaultCoalesceMaxBatch.
	MaxBatch int
	// MaxWait seals a flush when its first item has waited this long; 0
	// means DefaultCoalesceMaxWait.
	MaxWait time.Duration
	// Queue bounds the in-channel; 0 means 4×MaxBatch.
	Queue int
}

// coalesceResult is one item's response: the measure outcome exactly as the
// inline path would have produced it.
type coalesceResult struct {
	status int
	body   []byte
	msg    string
}

// coalesceItem is one pending submission. Exactly one flavor is set: raw
// items carry the unparsed query (decoded in the flush, shared per distinct
// profile spelling); parsed items carry the decoded params and profile (the
// submitter already holds that key's canonical flight leadership, so the
// flush computes the body and the submitter's fill publishes it).
//
// A parsed item's rhos alias the submitter's pooled scratch. That is safe
// because the submitter blocks until its response channel delivers — the
// scratch cannot be reused while the flush reads it — but the flush must
// never retain rhos past the response send. spelled is the item's profile
// value when it is already the canonical echo text, else "".
type coalesceItem struct {
	raw      bool
	rawQuery string
	m        model.Params
	rhos     []float64
	spelled  string
	resp     chan coalesceResult
	enqueued time.Time
}

// measureBatcher is the admission batcher: one collector goroutine drains
// the bounded channel into flushes.
type measureBatcher struct {
	srv *Server
	cfg CoalesceConfig

	ch   chan coalesceItem
	stop chan struct{}
	done chan struct{}

	// draining rejects new submits; inflight counts submits between
	// acceptance and response delivery. Close waits for inflight to reach
	// zero after setting draining, which guarantees the channel is empty and
	// every accepted item answered before the collector stops.
	draining atomic.Bool
	inflight atomic.Int64

	// Counters surfaced through /v1/statz.
	submitted   atomic.Uint64 // accepted submissions
	rawSubmits  atomic.Uint64 // accepted raw-flavor submissions
	fallbacks   atomic.Uint64 // rejected submits (queue full or draining)
	flushes     atomic.Uint64
	flushItems  atomic.Uint64
	maxFlush    atomic.Uint64
	groups      atomic.Uint64 // distinct profile groups across flushes
	sharedItems atomic.Uint64 // items that shared a group with another item
	parseErrors atomic.Uint64
	answered    atomic.Uint64
	queuedNs    atomic.Uint64 // submit → flush sealed, summed over items
	evalNs      atomic.Uint64 // flush sealed → response sent, summed over items
}

func newMeasureBatcher(srv *Server, cfg CoalesceConfig) *measureBatcher {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultCoalesceMaxBatch
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = DefaultCoalesceMaxWait
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * cfg.MaxBatch
	}
	b := &measureBatcher{
		srv:  srv,
		cfg:  cfg,
		ch:   make(chan coalesceItem, cfg.Queue),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go b.run()
	return b
}

// submit enqueues one item and blocks until its response. ok = false means
// the batcher did not accept it (queue full or draining) and the caller must
// evaluate inline.
func (b *measureBatcher) submit(it coalesceItem) (coalesceResult, bool) {
	// inflight is raised before the draining check: a Close that sets
	// draining after our check finds inflight > 0 and waits for our item, so
	// an accepted item is always answered before the collector stops.
	b.inflight.Add(1)
	if b.draining.Load() {
		b.inflight.Add(-1)
		b.fallbacks.Add(1)
		return coalesceResult{}, false
	}
	it.enqueued = time.Now()
	select {
	case b.ch <- it:
	default:
		b.inflight.Add(-1)
		b.fallbacks.Add(1)
		return coalesceResult{}, false
	}
	b.submitted.Add(1)
	if it.raw {
		b.rawSubmits.Add(1)
	}
	res := <-it.resp
	b.inflight.Add(-1)
	return res, true
}

// submitRaw coalesces one raw-query miss; called from inside the raw
// front's fill closure.
func (b *measureBatcher) submitRaw(rawQuery string) (coalesceResult, bool) {
	return b.submit(coalesceItem{
		raw:      true,
		rawQuery: rawQuery,
		resp:     make(chan coalesceResult, 1),
	})
}

// submitParsed coalesces one already-parsed canonical miss; called from
// inside the canonical cache's fill closure, so the caller is the flight
// leader for this key and publishes the returned body itself.
func (b *measureBatcher) submitParsed(m model.Params, rhos []float64, spelled string) ([]byte, bool) {
	res, ok := b.submit(coalesceItem{
		m:       m,
		rhos:    rhos,
		spelled: spelled,
		resp:    make(chan coalesceResult, 1),
	})
	if !ok {
		return nil, false
	}
	return res.body, true
}

// Close drains the batcher: new submits are rejected (callers fall back
// inline), every accepted item is flushed and answered, then the collector
// stops. Safe to call more than once.
func (b *measureBatcher) Close() {
	if b.draining.Swap(true) {
		<-b.done
		return
	}
	for b.inflight.Load() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
	close(b.stop)
	<-b.done
}

// run is the collector: it seals batches on size or max-wait and flushes
// them. It exits only when Close has proven no item is in flight.
func (b *measureBatcher) run() {
	defer close(b.done)
	batch := make([]coalesceItem, 0, b.cfg.MaxBatch)
	for {
		var first coalesceItem
		select {
		case first = <-b.ch:
		case <-b.stop:
			return
		}
		batch = append(batch[:0], first)
		timer := time.NewTimer(b.cfg.MaxWait)
	collect:
		for len(batch) < b.cfg.MaxBatch {
			select {
			case it := <-b.ch:
				batch = append(batch, it)
			case <-timer.C:
				break collect
			}
		}
		timer.Stop()
		b.flush(batch)
		for i := range batch {
			batch[i] = coalesceItem{} // drop scratch aliases promptly
		}
	}
}

// coalesceGroup is one distinct profile content within a flush. spelled is
// the profile value of any member that spelled it canonically ("" if none):
// every canonical spelling of one content is the same text.
type coalesceGroup struct {
	rhos     []float64
	bitsHash uint64
	spelled  string
	echo     []byte // rendered profile-echo fragment, built once
}

// profMemo caches the decode of one distinct profile-value spelling within a
// flush.
type profMemo struct {
	rhos   []float64
	group  int
	status int
	msg    string
}

// hashRhoBits hashes the exact float64 bit patterns of a profile — the
// grouping prefilter; groups are confirmed by full comparison.
func hashRhoBits(rhos []float64) uint64 {
	h := uint64(fnvOffset64)
	for _, r := range rhos {
		h ^= math.Float64bits(r)
		h *= fnvPrime64
	}
	return h
}

// flush evaluates one sealed batch: decode (no cache locks), group,
// evaluate (one coalesced incr dispatch), render, answer. The flush
// goroutine never touches a response cache — every submitter is a flight
// leader in the layer it came from (raw front for raw items, canonical for
// parsed ones) and publishes its own body — so it can never deadlock
// against cache locks, and a raw miss's per-item cost stays free of the
// canonical layer's full-key map hashing.
// The one semantic this trades away versus the inline path: a coalesced
// raw miss does not warm the canonical layer, so a later *different*
// spelling of the same cluster re-evaluates instead of hitting. Spelling
// variants within one flush still unify (they share a group), and the raw
// front caches every exact spelling as before.
func (b *measureBatcher) flush(batch []coalesceItem) {
	sealed := time.Now()
	b.flushes.Add(1)
	b.flushItems.Add(uint64(len(batch)))
	for {
		cur := b.maxFlush.Load()
		if uint64(len(batch)) <= cur || b.maxFlush.CompareAndSwap(cur, uint64(len(batch))) {
			break
		}
	}

	responded := make([]bool, len(batch))
	reply := func(i int, res coalesceResult) {
		if responded[i] {
			return
		}
		responded[i] = true
		b.answered.Add(1)
		b.queuedNs.Add(uint64(sealed.Sub(batch[i].enqueued)))
		b.evalNs.Add(uint64(time.Since(sealed)))
		batch[i].resp <- res
	}
	// A panic anywhere below must not strand submitters: answer the
	// leftovers with a 500 and keep the collector alive.
	defer func() {
		if r := recover(); r != nil {
			for i := range batch {
				reply(i, coalesceResult{status: 500, msg: fmt.Sprintf("coalesce flush: %v", r)})
			}
		}
	}()

	// Phase 1: decode. Raw items parse here — params per item, profile once
	// per distinct spelling. Parsed items group by content.
	var (
		groups []coalesceGroup
		memo   map[string]*profMemo
		byHash map[uint64][]int
	)
	findGroup := func(rhos []float64, spelled string) int {
		h := hashRhoBits(rhos)
		if byHash == nil {
			byHash = make(map[uint64][]int)
		}
		for _, g := range byHash[h] {
			if floatsEqual(groups[g].rhos, rhos) {
				if groups[g].spelled == "" {
					groups[g].spelled = spelled
				}
				return g
			}
		}
		groups = append(groups, coalesceGroup{rhos: rhos, bitsHash: h, spelled: spelled})
		g := len(groups) - 1
		byHash[h] = append(byHash[h], g)
		return g
	}

	type itemPlan struct {
		m     model.Params
		group int
		eval  int // index into evalItems, -1 when not evaluated
	}
	plans := make([]itemPlan, len(batch))
	var evalItems []incr.CoalescedItem
	evalOwner := make([]int, 0, len(batch))

	for i := range batch {
		it := &batch[i]
		plans[i].eval = -1
		var m model.Params
		var rhos []float64
		if it.raw {
			q := splitMeasureQuery(it.rawQuery)
			var status int
			var msg string
			m, status, msg = parseMeasureParams(b.srv.Defaults, q)
			if status != 0 {
				b.parseErrors.Add(1)
				reply(i, coalesceResult{status: status, msg: msg})
				continue
			}
			if memo == nil {
				memo = make(map[string]*profMemo)
			}
			pm, ok := memo[q.profileVal]
			if !ok {
				pm = &profMemo{}
				var canon bool
				pm.rhos, canon, pm.status, pm.msg = parseProfileValue(q.profileVal, nil)
				if pm.status == 0 {
					spelled := ""
					if canon {
						spelled = q.profileVal
					}
					pm.group = findGroup(pm.rhos, spelled)
				}
				memo[q.profileVal] = pm
			}
			if pm.status != 0 {
				b.parseErrors.Add(1)
				reply(i, coalesceResult{status: pm.status, msg: pm.msg})
				continue
			}
			rhos, plans[i].group = pm.rhos, pm.group
		} else {
			m, rhos = it.m, it.rhos
			plans[i].group = findGroup(rhos, it.spelled)
		}
		plans[i].m = m
		plans[i].eval = len(evalItems)
		evalItems = append(evalItems, incr.CoalescedItem{Params: m, Group: plans[i].group})
		evalOwner = append(evalOwner, i)
		_ = rhos
	}

	b.groups.Add(uint64(len(groups)))

	// Phase 2: one coalesced dispatch for the whole flush.
	uniques := make([]profile.Profile, len(groups))
	groupItems := make([]int, len(groups))
	for g := range groups {
		uniques[g] = profile.Profile(groups[g].rhos)
	}
	for _, i := range evalOwner {
		groupItems[plans[i].group]++
	}
	for g := range groups {
		if groupItems[g] > 1 {
			b.sharedItems.Add(uint64(groupItems[g]))
		}
	}
	b.srv.measureEvals.Add(uint64(len(evalItems)))
	measures := incr.CoalescedMeasure(evalItems, uniques, 0)

	// Phase 3: render — echo fragment once per group (copied from a
	// canonical member's spelling when there is one), tail per item.
	bodies := make([][]byte, len(batch))
	for _, i := range evalOwner {
		g := plans[i].group
		if groups[g].echo == nil {
			groups[g].echo = appendEcho(make([]byte, 0, 16*len(groups[g].rhos)+16), groups[g].rhos, groups[g].spelled)
		}
		echo := groups[g].echo
		body := make([]byte, len(echo), len(echo)+256)
		copy(body, echo)
		bodies[i] = appendMeasureTail(body, measures[plans[i].eval])
	}

	// Phase 4: answer. Every submitter publishes the body itself — parsed
	// items into the canonical layer (the submitter is that key's flight
	// leader), raw items into the raw front (the submitter is that
	// spelling's flight leader).
	for i := range batch {
		if !responded[i] {
			reply(i, coalesceResult{status: 200, body: bodies[i]})
		}
	}
}

// floatsEqual reports exact element-wise equality of two profiles — the
// grouping confirmation after the bit-hash prefilter. Bit-pattern equality
// (not ==) so grouping can never conflate distinct patterns; values that
// parse from queries are never NaN, but parsed items arrive pre-decoded and
// the comparison must stay exact regardless.
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
