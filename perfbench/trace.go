package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"hetero/internal/api"
	"hetero/internal/catalog"
	"hetero/internal/core"
	"hetero/internal/fault"
	"hetero/internal/incr"
	"hetero/internal/profile"
	"hetero/internal/schedule"
	"hetero/internal/sim"
	"hetero/internal/spill"
)

// The traced pass sends the workload's request stream, one request at a
// time, to an in-process api.Server built with the workload's
// configuration and served on a loopback listener. For each traced
// request it records four spans that share the request's ID:
//
//	roundtrip  the client's view, over the socket
//	handler    Handler().ServeHTTP, timed by a wrapper in this file
//	layer      the same input replayed one layer down — MeasureQuery,
//	           BatchBody or BatchBodyStream — on a twin server that has
//	           seen exactly the same requests, so its caches are in the
//	           same state the server's were
//	kernel     the same input replayed in the kernel (core, incr,
//	           schedule, sim, catalog), when the twin had to evaluate
//
// A layer's self time is its span minus the span one layer down. Blocks
// of cycle requests alternate between traced and untraced, so the round
// trips of the two halves give the in-band tracing overhead.

// spanHeader carries a traced request's ID to the wrapper, which strips
// it before the server sees the request.
const spanHeader = "X-Perfbench-Span"

type span struct {
	Req    int    `json:"req"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type traceResult struct {
	metrics   map[string]float64
	attempted int
	failures  map[string]int
	spansFile string
}

// sum accumulates a mean.
type sum struct {
	total float64
	n     int
}

func (s *sum) add(v float64)       { s.total += v; s.n++ }
func (s *sum) mean() float64       { return ratio(s.total, float64(s.n)) }
func us(d time.Duration) float64   { return float64(d) / 1e3 }
func isMeasure(kind string) bool   { return strings.HasPrefix(kind, "measure") }
func isBatch(kind string) bool     { return strings.HasPrefix(kind, "batch") || kind == "sweep" }
func streamsBatch(r *request) bool { return r.units >= api.DefaultStreamBatchThreshold }
func hasLayerReplay(k string) bool { return isMeasure(k) || isBatch(k) }
func twinStatz(h http.Handler) (api.StatzResponse, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/statz", nil))
	var s api.StatzResponse
	return s, json.Unmarshal(rec.Body.Bytes(), &s)
}

// sink keeps replayed kernel results live so the calls cannot be elided.
var sink float64

func tracedPhase(cfg runConfig, orc *oracle, at func(int) request, pristine, work string) (*traceResult, error) {
	w := cfg.w
	var mainDir, twinDir, probeDir string
	if w.server.spill {
		mainDir, twinDir, probeDir = filepath.Join(work, "trace-main"), filepath.Join(work, "trace-twin"), filepath.Join(work, "trace-probe")
		for _, d := range []string{mainDir, twinDir, probeDir} {
			if err := copyDir(pristine, d); err != nil {
				return nil, err
			}
		}
	}
	srv, openTime, err := w.server.build(mainDir)
	if err != nil {
		return nil, err
	}
	defer srv.CloseSpill()
	twin, _, err := w.server.build(twinDir)
	if err != nil {
		return nil, err
	}
	defer twin.CloseSpill()
	h, twinH := srv.Handler(), twin.Handler()

	origin := time.Now()
	ns := func(t time.Time) int64 { return t.Sub(origin).Nanoseconds() }
	var mu sync.Mutex
	handlerSpans := map[string][2]time.Time{}
	wrapped := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(spanHeader)
		if id == "" {
			h.ServeHTTP(rw, r)
			return
		}
		r.Header.Del(spanHeader)
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		t1 := time.Now()
		mu.Lock()
		handlerSpans[id] = [2]time.Time{t0, t1}
		mu.Unlock()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: wrapped}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed once Close runs below
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	k := &conn{addr: ln.Addr().String()}
	defer k.close()

	res := &traceResult{failures: map[string]int{}}
	var (
		spans                                    []span
		httpSelf, mwSelf, measureSelf, batchSelf sum
		planSelf, coreMeasure                    sum
		incrUs, incrUnits, kernelTotal, rtTotal  float64
		planKernel                               = map[string]*sum{}
		rtTraced, rtUntraced                     = map[string][]float64{}, map[string][]float64{}
		revisits                                 [][]float64
	)
	// The warm-up requests go first, untraced; the twin sees them too, so
	// both servers' caches are full when the traced requests start.
	for i := 0; i < w.warmup; i++ {
		r := at(i)
		status, body := k.do(&r, nil)
		res.attempted++
		if why := judge(orc, &r, status, body); why != "" {
			res.failures[why]++
		}
		if _, err := replayLayer(twin, twinH, &r); err != nil {
			return nil, err
		}
	}
	deadline := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	for i := w.warmup; time.Since(start) < deadline; i++ {
		r := at(i)
		traced := (i/w.cycle)%2 == 0
		id := strconv.Itoa(i)
		var hdr http.Header
		if traced {
			hdr = http.Header{spanHeader: {id}}
		}
		t0 := time.Now()
		status, body := k.do(&r, hdr)
		t1 := time.Now()
		res.attempted++
		if why := judge(orc, &r, status, body); why != "" {
			res.failures[why]++
		}
		rt := t1.Sub(t0)
		if traced {
			rtTraced[r.kind] = append(rtTraced[r.kind], float64(rt))
		} else {
			rtUntraced[r.kind] = append(rtUntraced[r.kind], float64(rt))
		}

		// Every request, traced or not, is replayed on the twin (which keeps
		// it in step) and in the kernel, so the two halves differ only in
		// the in-band span recording whose overhead they measure.
		l0 := time.Now()
		evaluated, err := replayLayer(twin, twinH, &r)
		l1 := time.Now()
		if err != nil {
			return nil, err
		}
		var kern time.Duration
		var k0, k1 time.Time
		kname := ""
		if evaluated {
			k0 = time.Now()
			kname, err = replayKernel(&r)
			k1 = time.Now()
			if err != nil {
				return nil, err
			}
			kern = k1.Sub(k0)
		}
		if !traced {
			continue
		}
		mu.Lock()
		hsp, ok := handlerSpans[id]
		delete(handlerSpans, id)
		mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("no handler span for request %d", i)
		}
		handler, layer := hsp[1].Sub(hsp[0]), l1.Sub(l0)
		spans = append(spans,
			span{i, r.kind, "roundtrip", "", ns(t0), ns(t1)},
			span{i, r.kind, "handler", "roundtrip", ns(hsp[0]), ns(hsp[1])})
		parent := "handler"
		if hasLayerReplay(r.kind) {
			spans = append(spans, span{i, r.kind, layerName(&r), "handler", ns(l0), ns(l1)})
			parent = layerName(&r)
			mwSelf.add(us(handler - layer))
		}
		if evaluated {
			spans = append(spans, span{i, r.kind, kname, parent, ns(k0), ns(k1)})
		}
		httpSelf.add(us(rt - handler))
		rtTotal += float64(rt)
		kernelTotal += float64(kern)
		switch {
		case isMeasure(r.kind):
			measureSelf.add(us(layer - kern))
			if evaluated {
				coreMeasure.add(us(kern))
			}
			if r.kind == "measure_revisit" && len(revisits) < 2000 {
				revisits = append(revisits, r.profiles[0])
			}
		case isBatch(r.kind):
			batchSelf.add(us(layer - kern))
			if evaluated {
				incrUs += us(kern)
				incrUnits += float64(r.units)
				for _, p := range r.profiles {
					coreMeasure.add(us(timeCoreMeasure(p)))
				}
			}
		default:
			planSelf.add(us(handler - kern))
			if planKernel[r.kind] == nil {
				planKernel[r.kind] = &sum{}
			}
			planKernel[r.kind].add(us(kern))
		}
	}

	m := map[string]float64{
		"http.self_us":           httpSelf.mean(),
		"api.middleware_self_us": mwSelf.mean(),
		"api.measure_self_us":    measureSelf.mean(),
		"api.batch_self_us":      batchSelf.mean(),
		"api.plan_self_us":       planSelf.mean(),
		"core.measure_us":        coreMeasure.mean(),
		"incr.us_per_kunit":      1000 * ratio(incrUs, incrUnits),
		"kernel.share":           ratio(kernelTotal, rtTotal),
		"spill.open_s":           openTime.Seconds(),
		"trace.overhead_pct":     overheadPct(rtTraced, rtUntraced),
	}
	for name, kinds := range map[string][]string{
		"schedule.build_fifo_us": {"schedule"},
		"sim.faulty_us":          {"faulty"},
		"sim.elastic_us":         {"elastic"},
		"catalog.optimize_us":    {"design"},
		"core.speedup_us":        {"speedup_phi", "speedup_psi"},
	} {
		var s sum
		for _, k := range kinds {
			if ks := planKernel[k]; ks != nil {
				s.total += ks.total
				s.n += ks.n
			}
		}
		m[name] = s.mean()
	}
	if probeDir != "" {
		if m["spill.get_us"], err = spillGetUs(probeDir, revisits); err != nil {
			return nil, err
		}
	}
	res.metrics = m
	res.spansFile, err = writeSpans(cfg, spans)
	return res, err
}

func layerName(r *request) string {
	switch {
	case isMeasure(r.kind):
		return "api.MeasureQuery"
	case streamsBatch(r):
		return "api.BatchBodyStream"
	}
	return "api.BatchBody"
}

// replayLayer sends r one layer down on the twin and reports whether the
// twin had to evaluate (rather than serve from a cache or spill layer).
func replayLayer(twin *api.Server, twinH http.Handler, r *request) (evaluated bool, err error) {
	switch {
	case isMeasure(r.kind):
		e0 := twin.MeasureEvals()
		if status, _ := twin.MeasureQuery(strings.TrimPrefix(r.target, "/v1/measure?")); status != 200 {
			return false, fmt.Errorf("twin MeasureQuery status %d", status)
		}
		return twin.MeasureEvals() > e0, nil
	case isBatch(r.kind):
		s0, err := twinStatz(twinH)
		if err != nil {
			return false, err
		}
		if streamsBatch(r) {
			if status, msg, err := twin.BatchBodyStream(context.Background(), io.Discard, r.body); status != 200 || err != nil {
				return false, fmt.Errorf("twin BatchBodyStream status %d %s %v", status, msg, err)
			}
		} else if status, _, msg := twin.BatchBody(r.body); status != 200 {
			return false, fmt.Errorf("twin BatchBody status %d %s", status, msg)
		}
		s1, err := twinStatz(twinH)
		if err != nil {
			return false, err
		}
		return s1.Batch.RawHits == s0.Batch.RawHits && s1.Spill.Hits == s0.Spill.Hits, nil
	}
	return true, nil // the plan endpoints cache nothing
}

// replayKernel runs r's input through the kernel the server evaluates it
// with and returns the kernel's name.
func replayKernel(r *request) (string, error) {
	switch in := r.input.(type) {
	case nil:
		if isBatch(r.kind) {
			profs := make([]profile.Profile, len(r.profiles))
			for i, p := range r.profiles {
				profs[i] = p
			}
			out := incr.BatchMeasureFull(defaults, profs, runtime.GOMAXPROCS(0))
			sink += out[0].X
			return "incr.BatchMeasureFull", nil
		}
		timeCoreMeasure(r.profiles[0])
		return "core.X+HECR+WorkRate", nil
	case *api.ScheduleRequest:
		s, err := schedule.BuildFIFO(defaults, in.Profile, in.Lifespan)
		if err == nil {
			sink += s.TotalWork
		}
		return "schedule.BuildFIFO", err
	case *api.FaultyRequest:
		rep, err := sim.SimulateFaulty(context.Background(), defaults, in.Profile, in.Lifespan, fault.Plan{Faults: in.Faults}, in.Replan, sim.Options{})
		sink += rep.Salvaged
		return "sim.SimulateFaulty", err
	case *api.ElasticRequest:
		rep, err := sim.SimulateElastic(context.Background(), defaults, in.Profile, in.Lifespan, fault.Plan{Faults: in.Faults}, sim.ElasticPolicy{Replan: in.Replan}, sim.Options{})
		sink += rep.Useful
		return "sim.SimulateElastic", err
	case speedupInput:
		var c core.SpeedupChoice
		var err error
		name := "core.BestMultiplicative"
		if in.phi {
			name = "core.BestAdditive"
			c, err = core.BestAdditive(defaults, in.profile, in.factor)
		} else {
			c, err = core.BestMultiplicative(defaults, in.profile, in.factor)
		}
		sink += c.WorkRatio
		return name, err
	case *api.DesignRequest:
		d, err := catalog.Optimize(defaults, catalog.Catalog(in.Catalog), in.Budget)
		sink += d.X
		return "catalog.Optimize", err
	}
	return "", errors.New("no kernel replay for request kind " + r.kind)
}

// timeCoreMeasure times the serial core measures of one profile.
func timeCoreMeasure(p []float64) time.Duration {
	t0 := time.Now()
	sink += core.X(defaults, p) + core.HECR(defaults, p) + core.WorkRate(defaults, p)
	return time.Since(t0)
}

// overheadPct compares, kind by kind, the median round trip of traced
// requests with that of untraced ones, and averages the ratios weighted by
// sample count, so a rare kind's noisy median counts for little.
func overheadPct(traced, untraced map[string][]float64) float64 {
	var sum, weight float64
	for kind, tr := range traced {
		un := untraced[kind]
		if n := float64(min(len(tr), len(un))); n >= 5 {
			sum += n * median(tr) / median(un)
			weight += n
		}
	}
	if weight == 0 {
		return 0
	}
	return 100 * (sum/weight - 1)
}

// spillGetUs times spill.Store.Get, on an untouched copy of the warm-up
// directory, for the canonical keys of the revisited profiles.
func spillGetUs(dir string, profiles [][]float64) (float64, error) {
	st, err := spill.Open(spill.Config{Dir: dir})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var s sum
	for _, p := range profiles {
		key := "c" + api.CanonicalKey(defaults, p)
		t0 := time.Now()
		b, _ := st.Get(key)
		s.add(us(time.Since(t0)))
		sink += float64(len(b))
	}
	return s.mean(), nil
}

func writeSpans(cfg runConfig, spans []span) (string, error) {
	dir := filepath.Join(cfg.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.jsonl", cfg.w.name, cfg.seed, time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
