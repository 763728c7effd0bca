package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"time"

	"hetero/internal/api"
	"hetero/internal/catalog"
	"hetero/internal/fault"
	"hetero/internal/model"
	"hetero/internal/spill"
)

// request is one generated HTTP request plus what the checks and the
// traced replays need to know about it. Requests are pure functions of
// (workload, seed, index): heterod only ever sees method, target and body.
type request struct {
	idx    int
	kind   string
	method string
	target string // path and query
	body   []byte
	units  int // ρ-values carried by the request

	// profiles are the measured profiles, in response order, for the
	// reference-form check (measure and batch kinds only).
	profiles [][]float64
	// input is the decoded input of a plan kind, for the kernel replay.
	input any
}

// key identifies a request's content for the oracle memo.
func (r *request) key() string {
	if len(r.body) == 0 {
		return r.method + " " + r.target
	}
	return fmt.Sprintf("%s %s %x", r.method, r.target, digestOf(r.body))
}

// serverConfig is one heterod configuration. flags and build produce the
// same server, as a child process and in-process respectively.
type serverConfig struct {
	cacheBytes int64 // -cache-bytes; 0 keeps heterod's default
	spill      bool  // -spill-dir with -spill-write-through
}

func (c serverConfig) flags(spillDir string, pprof bool) []string {
	f := []string{"-addr", "127.0.0.1:0"}
	if c.cacheBytes > 0 {
		f = append(f, "-cache-bytes", strconv.FormatInt(c.cacheBytes, 10))
	}
	if c.spill {
		f = append(f, "-spill-dir", spillDir, "-spill-write-through")
	}
	if pprof {
		f = append(f, "-pprof-addr", "127.0.0.1:0")
	}
	return f
}

// build constructs the in-process twin of what heterod builds from flags,
// returning how long opening the spill tier took.
func (c serverConfig) build(spillDir string) (*api.Server, time.Duration, error) {
	budget := c.cacheBytes
	if budget == 0 {
		budget = api.DefaultCacheBytes
	}
	s := api.NewServerWithCache(api.CacheConfig{
		Entries: api.DefaultMeasureCacheSize, MaxBytes: budget, Coalesce: true, Adaptive: true,
	})
	var open time.Duration
	if c.spill {
		t0 := time.Now()
		st, err := spill.Open(spill.Config{Dir: spillDir})
		if err != nil {
			return nil, 0, fmt.Errorf("opening spill tier: %w", err)
		}
		open = time.Since(t0)
		s.EnableSpillOptions(st, api.SpillOptions{WriteThrough: true})
	}
	return s, open, nil
}

// workload is one traffic mix. Every workload is a closed loop: each of
// conns() connections sends its next request when its previous one
// returns.
type workload struct {
	name  string
	cycle int // length of the request-kind pattern
	// warmup is how many requests of the stream go before the measured
	// phase, untimed, so that heterod's caches are full when timing starts.
	warmup int
	server serverConfig
	gen    func(seed uint64, i int) request
	// warm fills the spill directory before heterod starts on it.
	warm func(seed uint64, dir string) error
}

// conns is the generator's connection count: at most the host's CPU
// count, and never more than two, so runs compare across hosts.
func conns() int {
	if n := runtime.NumCPU(); n < 2 {
		return 1
	}
	return 2
}

var workloads = map[string]*workload{
	"measure_hot": {
		name: "measure_hot", cycle: 2, warmup: hotWarmup,
		gen: genMeasureHot,
	},
	"batch_fresh": {
		name: "batch_fresh", cycle: len(batchShapes),
		server: serverConfig{cacheBytes: 64 << 20},
		gen:    genBatchFresh,
	},
	"spill_churn": {
		name: "spill_churn", cycle: 2,
		server: serverConfig{cacheBytes: 1 << 20, spill: true},
		gen:    genSpillChurn,
		warm:   warmSpill,
	},
	"plan_mix": {
		name: "plan_mix", cycle: len(planKinds),
		gen: genPlanMix,
	},
}

// rngFor returns the generator for one stream position. Streams are
// separated by a salt, so a request index never shares draws with a key.
func rngFor(seed uint64, salt, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, salt<<40|i))
}

const (
	saltRequest uint64 = iota + 1
	saltHotKey
	saltNewKey
	saltWarmKey
	saltSweep
)

// rho draws a ρ-value k/100000 with k uniform in [1, 100000]. Five
// decimals keep bodies small: 16×65536 values stay under the 16 MiB body cap.
func rho(r *rand.Rand) (v float64, k int) {
	k = 1 + r.IntN(100000)
	return float64(k) / 1e5, k
}

// appendRho spells k/100000 as its shortest decimal ("0.5234", "1").
func appendRho(dst []byte, k int) []byte {
	if k == 100000 {
		return append(dst, '1')
	}
	var d [5]byte
	for j := 4; j >= 0; j-- {
		d[j] = byte('0' + k%10)
		k /= 10
	}
	end := 5
	for end > 1 && d[end-1] == '0' {
		end--
	}
	dst = append(dst, '0', '.')
	return append(dst, d[:end]...)
}

// appendRhoRespelled spells the same value differently: exponent form
// ("5.234e-01", "1e%2B00" with the plus escaped for the query), which
// parses to the identical float64.
func appendRhoRespelled(dst []byte, v float64) []byte {
	s := strconv.AppendFloat(nil, v, 'e', -1, 64)
	for _, c := range s {
		if c == '+' {
			dst = append(dst, "%2B"...)
		} else {
			dst = append(dst, c)
		}
	}
	return dst
}

// profileOf draws an n-computer profile and its canonical query spelling.
func profileOf(r *rand.Rand, n int, respell bool) ([]float64, []byte) {
	p := make([]float64, n)
	q := make([]byte, 0, n*8)
	for j := range p {
		v, k := rho(r)
		p[j] = v
		if j > 0 {
			q = append(q, ',')
		}
		if respell {
			q = appendRhoRespelled(q, v)
		} else {
			q = appendRho(q, k)
		}
	}
	return p, q
}

// measure_hot: a Zipf-hot keyspace about 20× the default 1024-entry cache.
const (
	hotSmallKeys = 19968
	hotLargeKeys = 1 << 16 // large keys mostly miss: ~2% of requests evaluate n ≥ 2048
	hotZipfS     = 1.1
	// hotWarmup fills both 1024-entry caches before timing: it carries
	// 1200 large requests, most of them misses, so the raw-query front is
	// full of large entries, and the canonical cache turns over many times.
	hotWarmup = 60000
)

func genMeasureHot(seed uint64, i int) request {
	r := rngFor(seed, saltRequest, uint64(i))
	large := i%50 == 25 // 2% of requests take the raw-query front path
	respell := i%5 == 3 // 20% spell their floats differently
	keys, space := uint64(hotSmallKeys), uint64(0)
	if large {
		keys, space = hotLargeKeys, 1
	}
	key := rand.NewZipf(r, hotZipfS, 1, keys-1).Uint64()
	// The key's size depends on its rank alone, so every seed has the same
	// size mix; the seed only picks the ρ-values.
	n := 4 + int(key*37%61)
	if large {
		n = 2048 + int(key%2)*1024
	}
	p, q := profileOf(rngFor(seed, saltHotKey, space<<32|key), n, respell)
	return request{
		idx: i, kind: map[bool]string{false: "measure", true: "measure_large"}[large],
		method: "GET", target: "/v1/measure?profile=" + string(q),
		units: n, profiles: [][]float64{p},
	}
}

// batch_fresh: never-seen profiles in three shapes, cycled in a fixed
// pattern so every run has the same shape mix.
type batchShape struct {
	kind     string
	profiles int
	n        int
}

var batchShapes = []batchShape{
	{"batch_small", 512, 24}, {"batch_small", 512, 24}, {"batch_small", 512, 24},
	{"batch_small", 512, 24}, {"batch_small", 512, 24},
	{"batch_buffered", 3, 65536}, {"batch_buffered", 3, 65536},
	{"batch_streamed", 16, 65536}, // 1<<20 ρ-values: at the stream threshold
}

func genBatchFresh(seed uint64, i int) request {
	sh := batchShapes[i%len(batchShapes)]
	return batchRequest(rngFor(seed, saltRequest, uint64(i)), i, sh)
}

func batchRequest(r *rand.Rand, i int, sh batchShape) request {
	req := request{idx: i, kind: sh.kind, method: "POST", target: "/v1/batch", units: sh.profiles * sh.n}
	b := make([]byte, 0, 16+sh.profiles*(sh.n*8+4))
	b = append(b, `{"profiles":[`...)
	for j := 0; j < sh.profiles; j++ {
		if j > 0 {
			b = append(b, ',')
		}
		p, q := profileOf(r, sh.n, false)
		req.profiles = append(req.profiles, p)
		b = append(b, '[')
		b = append(b, q...)
		b = append(b, ']')
	}
	req.body = append(b, "]}"...)
	return req
}

// spill_churn: half first-time keys, half revisits of warm-up keys that
// only the spill tier holds, and every spillSweepEvery-th request a
// repeat of a streamed batch sweep stored during the warm-up.
const (
	spillWarmKeys   = 12000
	spillSweeps     = 2
	spillSweepEvery = 1000
)

var sweepShape = batchShape{"sweep", 16, 65536}

func genSpillChurn(seed uint64, i int) request {
	if i%spillSweepEvery == spillSweepEvery-1 {
		s := (i / spillSweepEvery) % spillSweeps
		req := batchRequest(rngFor(seed, saltSweep, uint64(s)), i, sweepShape)
		return req
	}
	if i%2 == 0 {
		req := spillKeyRequest(rngFor(seed, saltNewKey, uint64(i)), i)
		req.kind = "measure_new"
		return req
	}
	w := rngFor(seed, saltRequest, uint64(i)).IntN(spillWarmKeys)
	req := spillKeyRequest(rngFor(seed, saltWarmKey, uint64(w)), i)
	req.kind = "measure_revisit"
	return req
}

func spillKeyRequest(r *rand.Rand, i int) request {
	n := 8 + r.IntN(57)
	p, q := profileOf(r, n, false)
	return request{
		idx: i, method: "GET", target: "/v1/measure?profile=" + string(q),
		units: n, profiles: [][]float64{p},
	}
}

// warmSpill fills dir the way a previous heterod life would have: every
// warm key and sweep served once through a write-through server, then a
// clean shutdown. The memory tier is unbounded here so the shutdown flush
// persists any key the write-through queue dropped.
func warmSpill(seed uint64, dir string) error {
	st, err := spill.Open(spill.Config{Dir: dir})
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	s := api.NewServerWithCache(api.CacheConfig{Entries: 1 << 16, MaxBytes: -1, Coalesce: true})
	s.EnableSpillOptions(st, api.SpillOptions{WriteThrough: true})
	for w := 0; w < spillWarmKeys; w++ {
		req := spillKeyRequest(rngFor(seed, saltWarmKey, uint64(w)), w)
		if status, _ := s.MeasureQuery(req.target[len("/v1/measure?"):]); status != 200 {
			return fmt.Errorf("warm-up: measure status %d", status)
		}
	}
	for k := 0; k < spillSweeps; k++ {
		req := batchRequest(rngFor(seed, saltSweep, uint64(k)), k, sweepShape)
		var sink bytes.Buffer
		if status, msg, err := s.BatchBodyStream(nil, &sink, req.body); status != 200 || err != nil {
			return fmt.Errorf("warm-up: sweep status %d %s %v", status, msg, err)
		}
	}
	s.CloseSpill()
	return nil
}

// plan_mix: fresh inputs for the schedule, simulation, speedup and design
// endpoints, in a fixed kind pattern.
var planKinds = []string{
	"schedule", "speedup_phi", "speedup_psi", "design",
	"faulty", "faulty", "faulty", "faulty",
	"elastic", "elastic", "elastic", "elastic",
}

func genPlanMix(seed uint64, i int) request {
	r := rngFor(seed, saltRequest, uint64(i))
	kind := planKinds[i%len(planKinds)]
	req := request{idx: i, kind: kind}
	n := 16 + r.IntN(33)
	p, q := profileOf(r, n, false)
	lifespan := float64(1000 + r.IntN(9000))
	post := func(path string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain structs of finite floats always marshal
		}
		req.method, req.target, req.body, req.input = "POST", path, b, v
	}
	switch kind {
	case "schedule":
		req.units = n
		post("/v1/schedule", &api.ScheduleRequest{Profile: p, Lifespan: lifespan})
	case "faulty":
		req.units = n
		post("/v1/simulate/faulty", &api.FaultyRequest{
			Profile: p, Lifespan: lifespan, Replan: true, Faults: faultsFor(r, n, lifespan, false),
		})
	case "elastic":
		req.units = n
		post("/v1/simulate/elastic", &api.ElasticRequest{
			Profile: p, Lifespan: lifespan, Replan: true, Faults: faultsFor(r, n, lifespan, true),
		})
	case "speedup_phi", "speedup_psi":
		req.units = n
		fastest := 1.0
		for _, v := range p {
			fastest = min(fastest, v)
		}
		var arg string
		var f float64
		if kind == "speedup_phi" {
			f = fastest * (0.1 + 0.8*r.Float64())
			arg = "phi"
		} else {
			f = 0.5 + 0.45*r.Float64()
			arg = "psi"
		}
		req.method = "GET"
		req.target = "/v1/speedup?profile=" + string(q) + "&" + arg + "=" + strconv.FormatFloat(f, 'g', -1, 64)
		req.input = speedupInput{profile: p, phi: kind == "speedup_phi", factor: f}
	case "design":
		tiers := 3 + r.IntN(3)
		cat := make([]catalog.Tier, tiers)
		for t := range cat {
			v, _ := rho(r)
			cat[t] = catalog.Tier{Name: "t" + strconv.Itoa(t), Rho: v, Price: 1 + r.IntN(20)}
		}
		req.units = tiers
		post("/v1/design", &api.DesignRequest{Catalog: cat, Budget: 200 + r.IntN(200)})
	}
	return req
}

type speedupInput struct {
	profile []float64
	phi     bool
	factor  float64
}

// faultsFor draws a valid fault plan: an outage, a slowdown and a crash on
// distinct computers, plus (elastic only) one machine joining.
func faultsFor(r *rand.Rand, n int, lifespan float64, join bool) []fault.Fault {
	perm := r.Perm(n)
	at := func() float64 { return float64(int(lifespan * (0.05 + 0.6*r.Float64()))) }
	out := at()
	fs := []fault.Fault{
		{Kind: fault.Outage, Computer: perm[0], At: out, Until: out + float64(int(lifespan*0.2))},
		{Kind: fault.Slowdown, Computer: perm[1], At: at(), Factor: 1.5 + r.Float64()},
		{Kind: fault.Crash, Computer: perm[2], At: at()},
	}
	if join {
		v, _ := rho(r)
		fs = append(fs, fault.Fault{Kind: fault.Join, Computer: n, At: at(), Rho: v})
	}
	return fs
}

// defaults is the parameter set every generated request is evaluated under.
var defaults = model.Table1()
