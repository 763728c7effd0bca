package main

// The sweep regime certifies the on-disk spill tier (internal/spill + the
// wiring in internal/api): repeated large streamed /v1/batch sweeps whose
// working set exceeds any in-memory cache, paired spill-off vs spill-on.
//
// Traffic is D distinct batch bodies, each P profiles, driven through
// BatchBodyStream — the streaming render path never admits its response to
// the memory front (bytes that were never assembled cannot be cached), so
// without the spill tier every pass pays the full decode + evaluate +
// render; with it, the first pass tees the streamed bytes into a segment
// file and every later pass serves them straight from the segment reader.
// Per sample both servers are fresh (the spill-on one with a fresh temp
// dir), the same sweep runs warm then timed on each, and the certificate
// gates three claims:
//
//   - wall clock: the 95% CI low end of the off/on wall-time ratio over
//     ≥ 5 paired samples ≥ 2×, re-derived by cmd/checkbench from the raw
//     per-sample nanosecond arrays;
//   - byte identity: every response — rendered or spill-served — must
//     hash identically to the first rendering (the golden sweep);
//   - bounded memory: the sampled heap peak of serving one spill hit must
//     stay ≤ sweepPeakRatioMax × the response size. A buffered serve
//     holds the whole response (ratio ≥ 1), so clearing the gate certifies
//     the fragment-by-fragment path end to end.

import (
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hetero/internal/api"
	"hetero/internal/spill"
)

// sweepThreshold is the certified floor for the 95% CI low end of the
// spill-off / spill-on wall-time ratio.
const sweepThreshold = 2.0

// sweepPeakRatioMax bounds the sampled heap peak of serving one spill hit
// relative to the response it serves. The serve path's live state is one
// store key (O(request)), the verify and copy chunks (64 KiB each), and
// allocator slop; a buffered serve would hold the full response and sit
// at ≥ 1×.
const sweepPeakRatioMax = 0.5

// sweepSamples sits above the benchstat-style floor (cmd/checkbench
// rejects certificates below minSamples = 5) for a tighter Student-t
// interval on a time-shared host, like fleetSamples.
const sweepSamples = 7

// sweepTimedPasses is how many whole sweeps one timed measurement spans.
// A single spill-on sweep is a few milliseconds — the same order as one
// scheduler stall on a noisy host — so each sample times several passes
// and lets the stall amortize instead of tanking the ratio.
const sweepTimedPasses = 2

type sweepSizes struct {
	bodies   int // distinct sweep bodies D
	profiles int // profiles per body P (≤ api.MaxBatchProfiles)
	samples  int
}

func sweepDefaultSizes(quick bool) sweepSizes {
	if quick {
		return sweepSizes{bodies: 2, profiles: 512, samples: 2}
	}
	return sweepSizes{bodies: 4, profiles: api.MaxBatchProfiles, samples: sweepSamples}
}

// sweepBodies builds D distinct batch bodies of P profiles each. Every
// profile is distinct within and across bodies (no dedupe, no canonical
// cache sharing), and short ρ spellings keep the request an order of
// magnitude smaller than the response it produces.
func sweepBodies(d, p int) [][]byte {
	out := make([][]byte, d)
	for b := range out {
		var sb strings.Builder
		sb.Grow(16 + 24*p)
		sb.WriteString(`{"profiles":[`)
		for i := 0; i < p; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			// [1, 0.x, 0.y, 0.z]: (x, y) walk within the body so no two
			// profiles dedupe, z pins the body.
			sb.WriteString("[1,0.")
			sb.WriteString(strconv.Itoa(i%899 + 101))
			sb.WriteString(",0.")
			sb.WriteString(strconv.Itoa(i/899 + 101))
			sb.WriteString(",0.")
			sb.WriteString(strconv.Itoa(b + 101))
			sb.WriteString("]")
		}
		sb.WriteString("]}")
		out[b] = []byte(sb.String())
	}
	return out
}

// sweepHashWriter digests and counts a streamed response without
// retaining it — the memory-honest stand-in for a network socket. The
// digest is CRC32-Castagnoli (hardware-accelerated on amd64/arm64): the
// identity check must not cost the same order as the disk serve it
// measures, and 32 bits over a handful of golden comparisons is ample.
type sweepHashWriter struct {
	h uint32
	n int64
}

var sweepCRCTable = crc32.MakeTable(crc32.Castagnoli)

func (w *sweepHashWriter) Write(p []byte) (int, error) {
	w.h = crc32.Update(w.h, sweepCRCTable, p)
	w.n += int64(len(p))
	return len(p), nil
}

// sweepGolden is the reference digest of one body's response.
type sweepGolden struct {
	hash uint32
	n    int64
}

// driveSweep streams every body passes times against s, checking each
// response against its golden digest (with record, the first pass writes
// the digests instead). Returns the wall time and per-request latencies.
func driveSweep(s *api.Server, bodies [][]byte, golden []sweepGolden, record bool, passes int) (time.Duration, []time.Duration) {
	lats := make([]time.Duration, 0, passes*len(bodies))
	runtime.GC() // level the GC state so paired runs compare fairly
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for i, body := range bodies {
			w := &sweepHashWriter{}
			t1 := time.Now()
			status, msg, err := s.BatchBodyStream(context.Background(), w, body)
			lats = append(lats, time.Since(t1))
			if status != 200 || err != nil {
				panic(fmt.Sprintf("benchserve: sweep body %d: status %d msg %q err %v", i, status, msg, err))
			}
			if record && p == 0 {
				golden[i] = sweepGolden{hash: w.h, n: w.n}
			} else if w.h != golden[i].hash || w.n != golden[i].n {
				panic(fmt.Sprintf("benchserve: sweep body %d: response diverges from the golden rendering (%d bytes vs %d)",
					i, w.n, golden[i].n))
			}
		}
	}
	return time.Since(t0), lats
}

// newSpillServer opens a fresh spill store under dir and attaches it to a
// fresh tuned server with a deliberately tiny memory byte budget, so the
// sweep's working set cannot hide in RAM.
func newSpillServer(dir string) *api.Server {
	st, err := spill.Open(spill.Config{Dir: dir})
	if err != nil {
		panic(fmt.Sprintf("benchserve: sweep spill store: %v", err))
	}
	s := api.NewServerWithCache(api.CacheConfig{Entries: 256, MaxBytes: 64 << 10, Coalesce: true})
	s.EnableSpillOptions(st, api.SpillOptions{})
	return s
}

// runSweep runs the paired sweep samples and builds the certificate.
func runSweep(quick bool) RegimeResult {
	sz := sweepDefaultSizes(quick)
	bodies := sweepBodies(sz.bodies, sz.profiles)
	golden := make([]sweepGolden, len(bodies))
	driveSweep(api.NewServer(), bodies, golden, true, 1) // golden digests, solo server

	tmp, err := os.MkdirTemp("", "benchserve-sweep-")
	if err != nil {
		panic(fmt.Sprintf("benchserve: sweep tempdir: %v", err))
	}
	defer os.RemoveAll(tmp)

	offNs := make([]int64, 0, sz.samples)
	onNs := make([]int64, 0, sz.samples)
	ratios := make([]float64, 0, sz.samples)
	var spillHits uint64
	var peak uint64
	var lastLats []time.Duration
	for k := 0; k < sz.samples; k++ {
		// Spill-off: the streaming path re-renders every pass by design.
		off := api.NewServerWithCache(api.CacheConfig{Entries: 256, MaxBytes: 64 << 10, Coalesce: true})
		driveSweep(off, bodies, golden, false, 1) // warm (symmetric with the on side)
		wallOff, _ := driveSweep(off, bodies, golden, false, sweepTimedPasses)

		// Spill-on: the warm pass renders and tees; the timed passes must
		// be all segment-reader hits.
		on := newSpillServer(filepath.Join(tmp, fmt.Sprintf("s%d", k)))
		driveSweep(on, bodies, golden, false, 1) // warm: render + tee (synchronous commits)
		hits0 := on.SpillStatsNow().Hits
		wallOn, lats := driveSweep(on, bodies, golden, false, sweepTimedPasses)
		st := on.SpillStatsNow()
		if got := st.Hits - hits0; got < uint64(sweepTimedPasses*len(bodies)) {
			panic(fmt.Sprintf("benchserve: sweep sample %d: only %d/%d spill hits in the timed passes",
				k, got, sweepTimedPasses*len(bodies)))
		}
		spillHits += st.Hits - hits0

		// Sampled heap peak of one more spill-hit serve of body 0.
		if p := measureSweepPeak(func() {
			w := &sweepHashWriter{}
			if status, _, err := on.BatchBodyStream(context.Background(), w, bodies[0]); status != 200 || err != nil {
				panic("benchserve: sweep peak drive failed")
			}
			if w.h != golden[0].hash || w.n != golden[0].n {
				panic("benchserve: sweep peak drive diverged from golden")
			}
		}); p > peak {
			peak = p
		}
		on.CloseSpill()

		offNs = append(offNs, wallOff.Nanoseconds())
		onNs = append(onNs, wallOn.Nanoseconds())
		if wallOn > 0 {
			ratio := float64(wallOff) / float64(wallOn)
			ratios = append(ratios, ratio)
			fmt.Fprintf(os.Stderr, "benchserve: sweep sample %d/%d: off=%s on=%s ratio=%.3f\n",
				k+1, sz.samples, wallOff, wallOn, ratio)
		}
		lastLats = lats
	}

	mean, lo, _ := meanCI95(ratios)
	responseBytes := golden[0].n
	for _, g := range golden {
		if g.n > responseBytes {
			responseBytes = g.n
		}
	}
	var sumOff, sumOn float64
	for i := range offNs {
		sumOff += float64(offNs[i])
		sumOn += float64(onNs[i])
	}
	timedReqs := len(bodies) * sweepTimedPasses
	perSweep := float64(timedReqs) * float64(time.Second)
	tuned := loadStats{ops: timedReqs, latencies: lastLats}
	r := RegimeResult{
		Name:              "sweep",
		Requests:          timedReqs * 2 * sz.samples,
		BaselineOpsPerSec: perSweep * float64(sz.samples) / sumOff,
		TunedOpsPerSec:    perSweep * float64(sz.samples) / sumOn,
		Speedup:           mean,
		SpeedupCILow:      lo,
		Samples:           len(ratios),
		TunedP50Ms:        tuned.percentileMs(50),
		TunedP99Ms:        tuned.percentileMs(99),
		Threshold:         sweepThreshold,
		SweepBodies:       sz.bodies,
		SweepProfiles:     sz.profiles,
		WallNsSpillOff:    offNs,
		WallNsSpillOn:     onNs,
		SpillHits:         spillHits,
		ResponseBytes:     responseBytes,
		PeakBytes:         int64(peak),
		PeakThreshold:     sweepPeakRatioMax,
	}
	r.MeetsThreshold = r.SpeedupCILow >= r.Threshold &&
		float64(r.PeakBytes) <= r.PeakThreshold*float64(r.ResponseBytes) &&
		r.SpillHits >= uint64(sz.bodies*sweepTimedPasses*sz.samples)
	return r
}

// measureSweepPeak runs fn while sampling runtime.MemStats.HeapAlloc and
// returns the peak growth over the baseline (cmd/benchbatch's gate
// arithmetic).
func measureSweepPeak(fn func()) uint64 {
	runtime.GC()
	runtime.GC() // settle finalizer-freed memory so the baseline is stable
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc

	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var s runtime.MemStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			runtime.ReadMemStats(&s)
			for {
				p := peak.Load()
				if s.HeapAlloc <= p || peak.CompareAndSwap(p, s.HeapAlloc) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	fn()
	close(stop)
	<-done
	if p := peak.Load(); p > baseline {
		return p - baseline
	}
	return 0
}

// runSpillChaos is the `make chaos` spill run: a warm spill store has
// every segment bit-flipped on disk, and the same sweep is driven again.
// Every response must still be byte-identical to the golden rendering —
// the CRC pre-verification turns corruption into a miss and the path
// falls back to evaluation (re-teeing fresh segments), never serving a
// corrupt byte. A third pass must then hit the repaired segments, again
// byte-identically: degradation may cost renders, never correctness.
func runSpillChaos() RegimeResult {
	sz := sweepSizes{bodies: 4, profiles: 1024}
	bodies := sweepBodies(sz.bodies, sz.profiles)
	golden := make([]sweepGolden, len(bodies))
	driveSweep(api.NewServer(), bodies, golden, true, 1)

	tmp, err := os.MkdirTemp("", "benchserve-spill-chaos-")
	if err != nil {
		panic(fmt.Sprintf("benchserve: spill chaos tempdir: %v", err))
	}
	defer os.RemoveAll(tmp)
	s := newSpillServer(tmp)
	defer s.CloseSpill()
	driveSweep(s, bodies, golden, false, 1) // warm: render + tee

	segs, err := filepath.Glob(filepath.Join(tmp, "*.seg"))
	if err != nil || len(segs) == 0 {
		panic(fmt.Sprintf("benchserve: spill chaos found no segments (err %v)", err))
	}
	for _, p := range segs {
		f, err := os.OpenFile(p, os.O_RDWR, 0)
		if err != nil {
			panic(fmt.Sprintf("benchserve: spill chaos open: %v", err))
		}
		info, err := f.Stat()
		if err != nil {
			panic(fmt.Sprintf("benchserve: spill chaos stat: %v", err))
		}
		buf := []byte{0}
		off := info.Size() / 2
		if _, err := f.ReadAt(buf, off); err != nil {
			panic(fmt.Sprintf("benchserve: spill chaos read: %v", err))
		}
		buf[0] ^= 0xff
		if _, err := f.WriteAt(buf, off); err != nil {
			panic(fmt.Sprintf("benchserve: spill chaos write: %v", err))
		}
		f.Close()
	}

	wall, _ := driveSweep(s, bodies, golden, false, 1) // every hit is corrupt → fall back, byte-identical
	st := s.SpillStatsNow()
	if st.Corrupt == 0 {
		panic("benchserve: spill chaos: no corruption detected by the CRC check")
	}
	hits0 := st.Hits
	_, _ = driveSweep(s, bodies, golden, false, 1) // repaired segments serve again
	st = s.SpillStatsNow()
	if st.Hits == hits0 {
		panic("benchserve: spill chaos: repaired segments never served")
	}
	fmt.Fprintf(os.Stderr,
		"benchserve: spill_chaos survived segment corruption: %d bodies ok (corrupt=%d rehits=%d)\n",
		len(bodies)*2, st.Corrupt, st.Hits-hits0)
	return RegimeResult{
		Name:           "spill_chaos",
		Requests:       len(bodies) * 3,
		TunedOpsPerSec: float64(len(bodies)) / wall.Seconds(),
		MeetsThreshold: true, // availability regime: reaching here means every byte matched
	}
}
