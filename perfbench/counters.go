package main

import (
	"net/http"

	"hetero/internal/api"
)

// statzPair is one snapshot of heterod's own counters: /v1/statz and the
// runtime.MemStats lines of /debug/pprof/heap?debug=1.
type statzPair struct {
	s   api.StatzResponse
	mem memCounters
}

func snapshot(client *http.Client, c *child) (statzPair, error) {
	s, err := statz(client, c.base)
	if err != nil {
		return statzPair{}, err
	}
	m, err := heapPage(client, c.pprofBase)
	return statzPair{s, m}, err
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics derives the per-layer counter figures from the deltas of
// heterod's counters across the measured phase.
func counterMetrics(ph *phaseResult) map[string]float64 {
	a, b := ph.before.s, ph.stop.s
	d := func(x, y uint64) float64 { return float64(y - x) }
	reqs := float64(len(ph.samples))
	mc0, mc1 := a.MeasureCache, b.MeasureCache
	lookups := d(mc0.Hits+mc0.Misses+mc0.Coalesced, mc1.Hits+mc1.Misses+mc1.Coalesced)
	b0, b1 := a.Batch, b.Batch
	s0, s1 := a.Spill, b.Spill
	return map[string]float64{
		"cache.hit_ratio":          ratio(d(mc0.Hits+mc0.Coalesced, mc1.Hits+mc1.Coalesced), lookups),
		"cache.raw_hit_ratio":      ratio(d(mc0.RawHits, mc1.RawHits), lookups),
		"cache.evicted_per_kreq":   1000 * ratio(d(mc0.Evicted, mc1.Evicted), reqs),
		"cache.resident_mb":        float64(mc1.Bytes+mc1.RawBytes+b1.RawBytes) / (1 << 20),
		"api.evals_per_miss":       ratio(d(a.Cluster.LocalEvals, b.Cluster.LocalEvals), d(mc0.Misses, mc1.Misses)),
		"api.shed":                 d(a.Serving.Shed, b.Serving.Shed),
		"api.deadline_exceeded":    d(a.Serving.DeadlineExceeded, b.Serving.DeadlineExceeded),
		"batch.dedupe_ratio":       ratio(d(b0.Deduped, b1.Deduped), d(b0.Profiles, b1.Profiles)),
		"batch.canon_hit_ratio":    ratio(d(b0.CacheHits, b1.CacheHits), d(b0.Profiles, b1.Profiles)),
		"batch.raw_hit_ratio":      ratio(d(b0.RawHits, b1.RawHits), d(b0.Requests, b1.Requests)),
		"batch.streamed_ratio":     ratio(d(b0.Streamed, b1.Streamed), d(b0.Requests, b1.Requests)),
		"spill.hit_ratio":          ratio(d(s0.Hits, s1.Hits), d(s0.Hits+s0.Misses, s1.Hits+s1.Misses)),
		"spill.writes_per_req":     ratio(d(s0.Writes, s1.Writes), reqs),
		"spill.dropped_writes":     d(s0.DroppedWrites, s1.DroppedWrites),
		"spill.failed_writes":      d(s0.FailedWrites, s1.FailedWrites),
		"spill.corrupt":            d(s0.Corrupt, s1.Corrupt),
		"spill.compactions":        d(s0.Compactions, s1.Compactions),
		"spill.compacted_mb":       d(s0.CompactedBytes, s1.CompactedBytes) / (1 << 20),
		"sim.replan_decisions":     ratio(d(a.Simulate.ReplanDecisions, b.Simulate.ReplanDecisions), d(a.Simulate.FaultyRequests+a.Simulate.ElasticRequests, b.Simulate.FaultyRequests+b.Simulate.ElasticRequests)),
		"runtime.alloc_kb_per_req": ratio(ph.stop.mem.totalAlloc-ph.before.mem.totalAlloc, reqs) / 1024,
		"runtime.gc_per_kreq":      1000 * ratio(ph.stop.mem.numGC-ph.before.mem.numGC, reqs),
	}
}
