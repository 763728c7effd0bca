// Package api exposes the library over HTTP as a small JSON service — the
// deployment face of the reproduction: a scheduler node (or a curious
// colleague with curl) can ask for cluster measures, optimal schedules, and
// budget designs without linking Go code.
//
// Endpoints (all GET unless noted):
//
//	GET  /v1/measure?profile=1,0.5,0.25[&tau=..&pi=..&delta=..]
//	     → X, HECR, work rate, moments (served through a bounded LRU cache
//	       keyed on the canonicalized params+profile)
//	GET  /v1/compare?p1=..&p2=..            → winner + per-cluster measures
//	POST /v1/batch {profiles, params?}      → measures for many profiles in
//	     one request, evaluated through internal/incr with parallel fan-out
//	POST /v1/schedule {profile, lifespan}   → allocations + timeline
//	POST /v1/design {catalog, budget}       → knapsack-optimal composition
//	GET  /v1/speedup?profile=..&phi=|psi=   → which computer to upgrade (§3)
//	POST /v1/simulate/faulty {profile, lifespan, faults, replan?}
//	     → degraded-work report: salvage, loss, and degradation vs the
//	       fault-free optimum W(L;P), optionally under the replanner
//	GET  /v1/statz                          → cache/batch counters + serving
//	     (shed, panics, deadline) counters
//	GET  /v1/healthz                        → liveness
//
// Parameters default to the paper's Table 1 environment. Every route is
// wrapped in hardening middleware: panic recovery, a bounded admission
// queue that sheds 429 + Retry-After at capacity, and per-request context
// deadlines (see ServingConfig).
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetero/internal/catalog"
	"hetero/internal/cluster"
	"hetero/internal/core"
	"hetero/internal/model"
	"hetero/internal/profile"
	"hetero/internal/schedule"
)

// DefaultMeasureCacheSize bounds the /v1/measure LRU when NewServer is used.
const DefaultMeasureCacheSize = 1024

// MaxBatchProfiles bounds one POST /v1/batch request; larger workloads
// should shard across requests.
const MaxBatchProfiles = 4096

// Server carries the default environment plus the serving-path state: the
// /v1/measure response cache, the admission-control tokens, and the
// /v1/statz counters.
type Server struct {
	Defaults model.Params
	// Serving tunes the hardening middleware; set it before the first
	// Handler call. The zero value uses the package defaults.
	Serving ServingConfig
	// MaxBody caps every POST request body in bytes (batch, simulate,
	// schedule, design); 0 means DefaultMaxBody. Set it before serving.
	MaxBody int
	// StreamBatchThreshold is the work-units estimate (incr.WorkUnits: one
	// unit per ρ-value in the batch) at or above which a POST /v1/batch
	// response is streamed with per-fragment flushes instead of buffered.
	// 0 means DefaultStreamBatchThreshold; negative disables streaming.
	// Set it before serving.
	StreamBatchThreshold int

	cache                *responseCache
	rawCache             *responseCache  // raw-query front layer for large queries
	batchRawCache        *responseCache  // raw body-front layer for /v1/batch
	batcher              *measureBatcher // cross-request coalescing admission batcher (nil = off)
	cluster              *cluster.Peers  // fleet cache tier (nil = single-replica)
	spill                *spillTier      // on-disk second-level cache (nil = off)
	measureEvals         atomic.Uint64   // measure-path profile evaluations (inline + flush)
	servedGets           atomic.Uint64   // peer gets answered with cached bytes
	servedGetsSpill      atomic.Uint64   // peer gets answered from the spill tier
	servedGetMisses      atomic.Uint64   // peer gets answered 404 (cold)
	acceptedPuts         atomic.Uint64   // peer puts admitted to a cache layer
	rejectedPuts         atomic.Uint64   // peer puts refused (ownership, framing, key)
	batchRequests        atomic.Uint64
	batchProfiles        atomic.Uint64
	batchProfilesUnknown atomic.Uint64
	batchDeduped         atomic.Uint64
	batchCanonHits       atomic.Uint64
	batchRawHits         atomic.Uint64
	batchStreamed        atomic.Uint64

	faultyRequests    atomic.Uint64
	elasticRequests   atomic.Uint64
	redundantRequests atomic.Uint64
	replanDecisions   atomic.Uint64
	replansAdopted    atomic.Uint64

	serving     ServingConfig // Serving with defaults resolved
	runTokens   chan struct{}
	queueTokens chan struct{}
	shed        atomic.Uint64
	panics      atomic.Uint64
	deadlines   atomic.Uint64
	inFlight    atomic.Int64

	startOnce sync.Once // pins started on first Handler/uptime call
	started   time.Time
}

// NewServer returns a server defaulting to Table 1 parameters with the
// default measure-cache size.
func NewServer() *Server { return NewServerCacheSize(DefaultMeasureCacheSize) }

// NewServerCacheSize returns a server with an explicit /v1/measure cache
// bound; cacheSize ≤ 0 disables response caching. The cache is sharded
// automatically, coalesces concurrent identical misses, and carries the
// default byte budget.
func NewServerCacheSize(cacheSize int) *Server {
	return NewServerWithCache(CacheConfig{Entries: cacheSize, Coalesce: true})
}

// CacheConfig configures every response-cache layer of a Server: the
// canonical /v1/measure cache, its raw-query front, and the /v1/batch raw
// body-front.
type CacheConfig struct {
	// Entries bounds each cache's entry count; ≤ 0 disables caching.
	Entries int
	// MaxBytes bounds each cache's resident bytes, counting len(key) +
	// len(body) per entry. 0 means DefaultCacheBytes; negative means
	// unlimited (entry count still bounds).
	MaxBytes int64
	// Shards is each cache's lock-domain count, fixed for the cache's
	// lifetime: 0 = automatic (one shard per 8 entries, as a power of two,
	// at most 16), other values round down to a power of two. Shards = 1
	// with Coalesce off reproduces the historical single-lock cache — the
	// baseline configuration cmd/benchserve measures speedups against.
	Shards int
	// Coalesce toggles singleflight miss coalescing. When off, the raw
	// front layers are disabled too (the historical baseline shape).
	Coalesce bool
	// Deprecated: ignored; shard geometry is fixed at construction.
	Adaptive bool
}

// NewServerWithCache returns a server with full cache control; the other
// constructors are conveniences over this one. Every Server is built here.
func NewServerWithCache(cfg CacheConfig) *Server {
	mk := func(entries int) *responseCache {
		maxBytes := cfg.MaxBytes
		if maxBytes == 0 {
			maxBytes = DefaultCacheBytes
		} else if maxBytes < 0 {
			maxBytes = 0 // unlimited
		}
		return newCache(cacheOptions{
			entries:  entries,
			maxBytes: maxBytes,
			shards:   cfg.Shards,
			coalesce: cfg.Coalesce,
		})
	}
	rawSize := cfg.Entries
	if !cfg.Coalesce {
		rawSize = 0 // historical baseline: canonical cache only
	}
	return &Server{
		Defaults:      model.Table1(),
		cache:         mk(cfg.Entries),
		rawCache:      mk(rawSize),
		batchRawCache: mk(rawSize),
	}
}

// EnableCoalesce starts the cross-request coalescing admission batcher for
// /v1/measure misses (see coalesce.go). Call before serving; off, the miss
// path is byte-for-byte the historical one. Pair with CloseCoalesce on
// shutdown so pending items are flushed and answered.
func (s *Server) EnableCoalesce(cfg CoalesceConfig) {
	if s.batcher != nil {
		s.batcher.Close()
	}
	s.batcher = newMeasureBatcher(s, cfg)
}

// CloseCoalesce drains the admission batcher: new submissions fall back to
// inline evaluation, already-accepted items are flushed and answered. Call
// it after the HTTP server has stopped accepting requests (heterod calls it
// once Shutdown returns). No-op when coalescing is off.
func (s *Server) CloseCoalesce() {
	if s.batcher != nil {
		s.batcher.Close()
	}
}

// Handler returns the HTTP handler with all routes mounted, wrapped in the
// hardening middleware (panic recovery, bounded admission, per-request
// deadlines — see ServingConfig).
func (s *Server) Handler() http.Handler {
	s.initServing()
	s.markStarted()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/measure", s.handleMeasure)
	mux.HandleFunc("/v1/compare", s.handleCompare)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/schedule", s.handleSchedule)
	mux.HandleFunc("/v1/design", s.handleDesign)
	mux.HandleFunc("/v1/speedup", s.handleSpeedup)
	mux.HandleFunc("/v1/simulate/faulty", s.handleSimulateFaulty)
	mux.HandleFunc("/v1/simulate/elastic", s.handleSimulateElastic)
	mux.HandleFunc("/v1/statz", s.handleStatz)
	mux.HandleFunc(cluster.PeerGetPath, s.handlePeerGet)
	mux.HandleFunc(cluster.PeerPutPath, s.handlePeerPut)
	mux.HandleFunc("/", handleNotFound) // JSON 404s, matching every error path
	return s.wrap(mux)
}

func handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, "no such endpoint: "+r.URL.Path)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// MeasureResponse is the /v1/measure payload.
type MeasureResponse struct {
	Profile  profile.Profile `json:"profile"`
	X        float64         `json:"x"`
	HECR     float64         `json:"hecr"`
	WorkRate float64         `json:"work_rate"`
	Mean     float64         `json:"mean"`
	Variance float64         `json:"variance"`
	GeoMean  float64         `json:"geo_mean"`
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	// The cache stores fully rendered bodies keyed on the exact float64
	// values, so a hit serves byte-identical JSON to the miss that filled it
	// — no matter how the query spelled the numbers. The whole path runs on
	// pooled scratch (see measurepath.go): zero allocations on a hit,
	// singleflight-coalesced evaluation on a miss.
	sc := measureScratchPool.Get().(*measureScratch)
	status, body, msg := s.measure(sc, r.URL.RawQuery)
	measureScratchPool.Put(sc)
	if status != http.StatusOK {
		writeError(w, status, msg)
		return
	}
	writeRawJSON(w, http.StatusOK, body)
}

// measureResponse builds the /v1/measure payload for one cluster.
func measureResponse(m model.Params, p profile.Profile) MeasureResponse {
	return MeasureResponse{
		Profile:  p,
		X:        core.X(m, p),
		HECR:     core.HECR(m, p),
		WorkRate: core.WorkRate(m, p),
		Mean:     p.Mean(),
		Variance: p.Variance(),
		GeoMean:  p.GeoMean(),
	}
}

// BatchRequest is the POST /v1/batch body: many profiles evaluated against
// one parameter set.
type BatchRequest struct {
	Profiles [][]float64   `json:"profiles"`
	Params   *model.Params `json:"params,omitempty"`
}

// BatchResponse is the POST /v1/batch payload; Results is indexed like the
// request's Profiles.
type BatchResponse struct {
	Count   int               `json:"count"`
	Results []MeasureResponse `json:"results"`
}

// readPostBody reads one POST request body under the Server's unified byte
// cap (MaxBody). The cap applies before any decoding: request *shapes* are
// bounded by the endpoint validators, but a hostile body could carry
// unbounded tokens and balloon decode memory. Over-cap bodies get the
// structured 413 every endpoint shares; ok = false means the response has
// been written.
//
// A declared Content-Length within the cap sizes the buffer up front, so a
// large body is read in place instead of through io.ReadAll's doubling
// copies; the declaration is only a hint, and a body that turns out longer
// is still read up to the cap.
func (s *Server) readPostBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	max := s.maxBody()
	size := 0
	if r.ContentLength > 0 && r.ContentLength <= int64(max) {
		size = int(r.ContentLength)
	}
	// MinRead spare capacity: the final read that finds EOF needs no growth.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(io.LimitReader(r.Body, int64(max)+1))
	body = buf.Bytes()
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return nil, false
	}
	if len(body) > max {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("body exceeds %d bytes; shard across requests or raise -max-body", max))
		return nil, false
	}
	return body, true
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	body, ok := s.readPostBody(w, r)
	if !ok {
		return
	}
	// A body of B bytes decodes to at most ~B/2 ρ-values, so bodies under
	// the work-units threshold in bytes can never stream: they take the
	// buffered engine (raw body-front, dedupe, cacheable assembly) whole.
	if len(body) >= s.streamBatchThreshold() {
		s.serveBatchLarge(w, r, body)
		return
	}
	status, resp, msg := s.BatchBody(body)
	if status != http.StatusOK {
		writeError(w, status, msg)
		return
	}
	writeRawJSON(w, http.StatusOK, resp)
}

// CacheStats is the /v1/statz view of the measure cache. Misses counts
// actual evaluations; Coalesced counts requests that piggybacked on another
// request's in-flight evaluation of the same key (singleflight). Hits and
// Coalesced include the raw-query front layer (broken out in RawHits and
// RawCoalesced): a request resolves at exactly one layer, so Hits + Misses
// + Coalesced equals the measure request count either way.
type CacheStats struct {
	Hits         uint64  `json:"hits"`
	Misses       uint64  `json:"misses"`
	Coalesced    uint64  `json:"coalesced"`
	Evicted      uint64  `json:"evicted"`
	Rejected     uint64  `json:"rejected"` // entries over a shard's whole byte budget
	RawHits      uint64  `json:"raw_hits"`
	RawCoalesced uint64  `json:"raw_coalesced"`
	Size         int     `json:"size"`
	Capacity     int     `json:"capacity"`
	Bytes        int64   `json:"bytes"`      // resident key+body bytes, canonical layer
	RawBytes     int64   `json:"raw_bytes"`  // resident bytes, raw-query front layer
	MaxBytes     int64   `json:"max_bytes"`  // per-cache byte budget (0 = unlimited)
	Shards       int     `json:"shards"`     // lock domains, canonical layer
	RawShards    int     `json:"raw_shards"` // lock domains, raw-query front layer
	HitRate      float64 `json:"hit_rate"`
}

// BatchStats is the /v1/statz view of the batch endpoint. Deduped counts
// within-request profiles that collapsed onto a bit-identical earlier entry;
// CacheHits counts batch entries served from the canonical measure cache;
// RawHits counts whole requests served (or coalesced) by the raw body-front
// cache, whose residency RawBytes reports; Streamed counts responses
// rendered through the bounded-memory streaming path. ProfilesUnknown
// counts served requests whose profile count could not be recovered (no
// admission-time meta and no sniffable count prefix) — those requests are
// in Requests but contribute nothing to Profiles, reported explicitly
// instead of silently skewing the ratio.
type BatchStats struct {
	Requests        uint64 `json:"requests"`
	Profiles        uint64 `json:"profiles"`
	ProfilesUnknown uint64 `json:"profiles_unknown"`
	Deduped         uint64 `json:"deduped"`
	CacheHits       uint64 `json:"cache_hits"`
	RawHits         uint64 `json:"raw_hits"`
	RawBytes        int64  `json:"raw_bytes"`
	Streamed        uint64 `json:"streamed"`
	RawShards       int    `json:"raw_shards"` // lock domains, body-front layer
}

// CoalesceStats is the /v1/statz view of the admission batcher: how many
// misses it accepted (raw-flavor broken out), how they batched (flushes,
// items, max flush size, distinct profile groups, items that shared a
// group), how many submissions fell back to the inline path, and the
// per-item timing breakdown — QueuedNs sums submit→flush-sealed waits,
// EvalNs sums flush-sealed→answered times, each over Answered items.
type CoalesceStats struct {
	Enabled         bool   `json:"enabled"`
	Submitted       uint64 `json:"submitted"`
	RawSubmitted    uint64 `json:"raw_submitted"`
	Answered        uint64 `json:"answered"`
	Flushes         uint64 `json:"flushes"`
	FlushItems      uint64 `json:"flush_items"`
	MaxFlush        uint64 `json:"max_flush"`
	Groups          uint64 `json:"groups"`
	SharedItems     uint64 `json:"shared_items"`
	InlineFallbacks uint64 `json:"inline_fallbacks"`
	ParseErrors     uint64 `json:"parse_errors"`
	QueuedNs        uint64 `json:"queued_ns"`
	EvalNs          uint64 `json:"eval_ns"`
}

// SimulateStats is the /v1/statz view of the simulation endpoints.
// FaultyRequests and ElasticRequests count validated simulations started on
// each route (RedundantRequests is the elastic subset running a redundancy
// scheme); ReplanDecisions counts ride-vs-replan decision points across
// both routes, ReplansAdopted the ones where the replanner abandoned the
// in-flight round.
type SimulateStats struct {
	FaultyRequests    uint64 `json:"faulty_requests"`
	ElasticRequests   uint64 `json:"elastic_requests"`
	RedundantRequests uint64 `json:"redundant_requests"`
	ReplanDecisions   uint64 `json:"replan_decisions"`
	ReplansAdopted    uint64 `json:"replans_adopted"`
}

// ServingStats is the /v1/statz view of the hardening middleware.
type ServingStats struct {
	Shed             uint64 `json:"shed"`
	Panics           uint64 `json:"panics"`
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	InFlight         int64  `json:"in_flight"`
	MaxConcurrent    int    `json:"max_concurrent"`
	QueueDepth       int    `json:"queue_depth"`
}

// StatzResponse is the /v1/statz payload. UptimeSeconds and Build identify
// and age one replica of a fleet; Cluster reports the peer cache tier.
type StatzResponse struct {
	UptimeSeconds float64       `json:"uptime_seconds"`
	Build         BuildInfo     `json:"build"`
	MeasureCache  CacheStats    `json:"measure_cache"`
	Batch         BatchStats    `json:"batch"`
	Coalesce      CoalesceStats `json:"coalesce"`
	Simulate      SimulateStats `json:"simulate"`
	Cluster       ClusterStats  `json:"cluster"`
	Spill         SpillStats    `json:"spill"`
	Serving       ServingStats  `json:"serving"`
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	ct := s.cache.counters()
	cs := CacheStats{
		Hits: ct.hits, Misses: ct.misses, Coalesced: ct.coalesced,
		Evicted: ct.evicted, Rejected: ct.rejected,
		Size: ct.size, Capacity: s.cache.capacity,
		Bytes: ct.bytes, MaxBytes: s.cache.maxBytes,
		Shards: ct.shards,
	}
	rt := s.rawCache.counters()
	cs.RawHits, cs.RawCoalesced, cs.RawBytes, cs.RawShards = rt.hits, rt.coalesced, rt.bytes, rt.shards
	cs.Evicted += rt.evicted
	cs.Rejected += rt.rejected
	cs.Hits += rt.hits
	cs.Coalesced += rt.coalesced
	if total := cs.Hits + cs.Misses + cs.Coalesced; total > 0 {
		cs.HitRate = float64(cs.Hits+cs.Coalesced) / float64(total)
	}
	bs := BatchStats{
		Requests:        s.batchRequests.Load(),
		Profiles:        s.batchProfiles.Load(),
		ProfilesUnknown: s.batchProfilesUnknown.Load(),
		Deduped:         s.batchDeduped.Load(),
		CacheHits:       s.batchCanonHits.Load(),
		RawHits:         s.batchRawHits.Load(),
		Streamed:        s.batchStreamed.Load(),
	}
	bt := s.batchRawCache.counters()
	bs.RawBytes, bs.RawShards = bt.bytes, bt.shards
	var co CoalesceStats
	if b := s.batcher; b != nil {
		co = CoalesceStats{
			Enabled:         true,
			Submitted:       b.submitted.Load(),
			RawSubmitted:    b.rawSubmits.Load(),
			Answered:        b.answered.Load(),
			Flushes:         b.flushes.Load(),
			FlushItems:      b.flushItems.Load(),
			MaxFlush:        b.maxFlush.Load(),
			Groups:          b.groups.Load(),
			SharedItems:     b.sharedItems.Load(),
			InlineFallbacks: b.fallbacks.Load(),
			ParseErrors:     b.parseErrors.Load(),
			QueuedNs:        b.queuedNs.Load(),
			EvalNs:          b.evalNs.Load(),
		}
	}
	writeJSON(w, http.StatusOK, StatzResponse{
		UptimeSeconds: s.uptime().Seconds(),
		Build:         buildInfo(),
		MeasureCache:  cs,
		Batch:         bs,
		Coalesce:      co,
		Cluster:       s.clusterStats(),
		Spill:         s.spillStats(),
		Simulate: SimulateStats{
			FaultyRequests:    s.faultyRequests.Load(),
			ElasticRequests:   s.elasticRequests.Load(),
			RedundantRequests: s.redundantRequests.Load(),
			ReplanDecisions:   s.replanDecisions.Load(),
			ReplansAdopted:    s.replansAdopted.Load(),
		},
		Serving: ServingStats{
			Shed:             s.shed.Load(),
			Panics:           s.panics.Load(),
			DeadlineExceeded: s.deadlines.Load(),
			InFlight:         s.inFlight.Load(),
			MaxConcurrent:    s.serving.MaxConcurrent,
			QueueDepth:       s.serving.QueueDepth,
		},
	})
}

// CompareResponse is the /v1/compare payload.
type CompareResponse struct {
	P1     MeasureResponse `json:"p1"`
	P2     MeasureResponse `json:"p2"`
	Winner int             `json:"winner"` // 1, 2, or 0 for a tie
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	// Large queries go through the raw front cache (see rawfront.go); small
	// ones render directly.
	s.serveQueryCached(w, compareKeyPrefix, r.URL.RawQuery, s.renderCompare)
}

// ScheduleRequest is the /v1/schedule body.
type ScheduleRequest struct {
	Profile  []float64     `json:"profile"`
	Lifespan float64       `json:"lifespan"`
	Params   *model.Params `json:"params,omitempty"`
}

// ScheduleResponse is the /v1/schedule payload.
type ScheduleResponse struct {
	TotalWork   float64           `json:"total_work"`
	Allocations []float64         `json:"allocations"`
	Computers   []ScheduleSegment `json:"computers"`
}

// ScheduleSegment summarizes one computer's timeline.
type ScheduleSegment struct {
	Rho       float64 `json:"rho"`
	Work      float64 `json:"work"`
	RecvEnd   float64 `json:"recv_end"`
	BusyEnd   float64 `json:"busy_end"`
	ResultsAt float64 `json:"results_at"`
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	body, ok := s.readPostBody(w, r)
	if !ok {
		return
	}
	var req ScheduleRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	m := s.Defaults
	if req.Params != nil {
		m = *req.Params
	}
	p, err := profile.New(req.Profile...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sched, err := schedule.BuildFIFO(m, p, req.Lifespan)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	resp := ScheduleResponse{TotalWork: sched.TotalWork}
	for _, c := range sched.Computers {
		resp.Allocations = append(resp.Allocations, c.Work)
		resp.Computers = append(resp.Computers, ScheduleSegment{
			Rho:       c.Rho,
			Work:      c.Work,
			RecvEnd:   c.Segment(schedule.SegReceive).End,
			BusyEnd:   c.Segment(schedule.SegPack).End,
			ResultsAt: c.ResultsArrive,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// DesignRequest is the /v1/design body.
type DesignRequest struct {
	Catalog []catalog.Tier `json:"catalog"`
	Budget  int            `json:"budget"`
	Params  *model.Params  `json:"params,omitempty"`
}

// DesignResponse is the /v1/design payload.
type DesignResponse struct {
	Counts  []int           `json:"counts"`
	Cost    int             `json:"cost"`
	Profile profile.Profile `json:"profile"`
	X       float64         `json:"x"`
	HECR    float64         `json:"hecr"`
}

func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	body, ok := s.readPostBody(w, r)
	if !ok {
		return
	}
	var req DesignRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	m := s.Defaults
	if req.Params != nil {
		m = *req.Params
	}
	design, err := catalog.Optimize(m, catalog.Catalog(req.Catalog), req.Budget)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, DesignResponse{
		Counts:  design.Counts,
		Cost:    design.Cost,
		Profile: design.Profile,
		X:       design.X,
		HECR:    core.HECR(m, design.Profile),
	})
}

// SpeedupResponse is the /v1/speedup payload: which single computer to
// upgrade, per §3 of the paper.
type SpeedupResponse struct {
	Index     int             `json:"index"` // 0-based computer to upgrade
	After     profile.Profile `json:"after"`
	WorkRatio float64         `json:"work_ratio"`
	Mode      string          `json:"mode"` // "additive" or "multiplicative"
}

func (s *Server) handleSpeedup(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	// Large queries go through the raw front cache (see rawfront.go); small
	// ones render directly.
	s.serveQueryCached(w, speedupKeyPrefix, r.URL.RawQuery, s.renderSpeedup)
}

func profileFromString(s string) (profile.Profile, error) {
	if s == "" {
		return nil, fmt.Errorf("missing profile")
	}
	parts := strings.Split(s, ",")
	rhos := make([]float64, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad ρ-value %q", part)
		}
		rhos = append(rhos, v)
	}
	return profile.New(rhos...)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeRawJSON writes a pre-rendered JSON body (already newline-terminated,
// matching json.Encoder output).
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// methodNotAllowed writes the structured 405 used by every route, with the
// Allow header RFC 9110 requires.
func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	writeError(w, http.StatusMethodNotAllowed, allow+" only")
}
