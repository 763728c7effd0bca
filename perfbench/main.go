// Command perfbench is the repository's benchmark: it starts a real
// heterod, drives one workload at it over loopback from this process,
// checks every response against an in-process oracle, and prints every
// metric by name with its unit. The last line of its output is a JSON
// object with the keys correct, attempted, failed and metrics.
//
// Run it through perfbench/run.sh from the repository root, which builds
// heterod and this command from source first:
//
//	bash perfbench/run.sh --workload measure_hot --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the run reports the per-layer figures instead: the same
// child run supplies the server's counters, and a second pass replays the
// request stream against an in-process api.Server with spans around each
// layer (see trace.go). Results are also written as JSON records under
// .bench_build/perfbench/results; "compare" reads two sets of them (see
// compare.go). NOTES.md records why each workload and metric exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root")
	heterod := fs.String("heterod", "", "heterod binary built from the repository root")
	out := fs.String("out", ".bench_build/perfbench", "directory for results, spans and scratch files")
	name := fs.String("workload", "", "workload: measure_hot, batch_fresh, spill_churn or plan_mix")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 reports the per-layer figures of a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.Arg(0) == "compare" {
		os.Exit(compareMain(fs.Args()[1:], filepath.Join(*root, "BENCHMARK.json"), os.Stdout))
	}
	w, ok := workloads[*name]
	if !ok || *heterod == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -heterod, a known --workload, --seconds ≥ 1 and --trace 0|1")
		os.Exit(2)
	}
	rec, err := run(runConfig{
		root: *root, heterod: *heterod, out: *out,
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, rec, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	root, heterod, out string
	w                  *workload
	seed               uint64
	seconds            int
	trace              bool
}

// setupStarts is how many times a run starts heterod; setup_s is the
// median. The last start serves the measured phase.
const setupStarts = 9

// record is everything one run measured. Its JSON form is written to the
// results directory; compare reads it back.
type record struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Trace        bool               `json:"trace"`
	Fingerprint  fingerprint        `json:"fingerprint"`
	StreamDigest string             `json:"stream_digest"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	ErrorRatio   float64            `json:"error_ratio"`
	FailureKinds map[string]int     `json:"failure_kinds,omitempty"`
	Latency      latencySummary     `json:"latency"`
	SetupRuns    []float64          `json:"setup_runs_s"`
	RefChecked   int                `json:"reference_checked"`
	RefMaxRelErr float64            `json:"reference_max_rel_err"`
	EndToEnd     map[string]float64 `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	SpansFile    string             `json:"spans_file,omitempty"`
	// ClientCPUUsPerReq is this process's own CPU per request sent.
	ClientCPUUsPerReq float64 `json:"client_cpu_us_per_req"`
}

// fingerprint identifies the host, toolchain, code and settings of a run.
type fingerprint struct {
	CPUs         int      `json:"cpus"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	Commit       string   `json:"commit"`
	TreeDigest   string   `json:"tree_digest"`
	HeterodFlags []string `json:"heterod_flags"`
	Conns        int      `json:"conns"`
	Seconds      int      `json:"seconds"`
	// Host steal over the whole measured phase and per one-second window,
	// and the windows the end-to-end figures were computed over.
	StealPct       float64   `json:"host_steal_pct"`
	WindowStealPct []float64 `json:"window_steal_pct"`
	KeptWindows    []int     `json:"kept_windows"`
}

func run(cfg runConfig) (*record, error) {
	w := cfg.w
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	spillDir := filepath.Join(work, "spill")
	flags := w.server.flags(spillDir, cfg.trace)
	rec := &record{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		StreamDigest: streamDigest(w, cfg.seed),
		Fingerprint: fingerprint{
			CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commitOf(cfg.root), TreeDigest: treeDigest(cfg.root),
			HeterodFlags: relFlags(flags, cfg.root), Conns: conns(), Seconds: cfg.seconds,
		},
	}
	if w.warm != nil {
		if err := w.warm(cfg.seed, spillDir); err != nil {
			return nil, err
		}
	}
	var pristine string // untouched warm-up copy for the traced replay
	if w.warm != nil && cfg.trace {
		pristine = filepath.Join(work, "spill-warm")
		if err := copyDir(spillDir, pristine); err != nil {
			return nil, err
		}
	}
	orc := newOracle()
	at := func(i int) request { return w.gen(cfg.seed, i) }

	ph, err := measuredPhase(cfg, flags, filepath.Join(work, "heterod.log"))
	if err != nil {
		return nil, err
	}
	rec.SetupRuns = ph.setups
	rec.ClientCPUUsPerReq = float64(ph.clientCPU) / 1e3 / float64(len(ph.samples))

	// Check every response. The loop learns only now which requests it
	// sent, so the expectations are computed here, after timing.
	// Failures count over the whole phase; the figures come from the
	// calm windows (see windows.go).
	steal := windowSteal(ph.readings)
	keep := calmWindows(steal)
	kept := func(s sample) bool { k := windowOf(s); return k >= 0 && k < len(keep) && keep[k] }
	fails := map[string]int{}
	for _, s := range ph.warm {
		r := at(s.idx)
		if why := judge(orc, &r, s.status, s.body); why != "" {
			fails[why]++
		}
	}
	var okLat []float64
	var units float64
	for _, s := range ph.samples {
		r := at(s.idx)
		if why := judge(orc, &r, s.status, s.body); why != "" {
			fails[why]++
			continue
		}
		if kept(s) {
			okLat = append(okLat, float64(s.latency)/1e6)
			units += float64(s.units)
		}
	}
	rec.Attempted = len(ph.warm) + len(ph.samples)
	for _, n := range fails {
		rec.Failed += n
	}
	if len(fails) > 0 {
		rec.FailureKinds = fails
	}
	if rec.Attempted == 0 {
		return nil, errors.New("no request was sent")
	}
	// Rates are per second the host gave: every workload is a closed loop
	// that keeps the CPUs busy, so a window with s% steal had (100-s)% of
	// its time to work in.
	var cpu int64
	var secs float64
	for k, use := range keep {
		if use {
			cpu += ph.readings[k+1].cpu - ph.readings[k].cpu
			secs += 1 - steal[k]/100
			rec.Fingerprint.KeptWindows = append(rec.Fingerprint.KeptWindows, k)
		}
	}
	rec.Fingerprint.WindowStealPct = steal
	rec.Fingerprint.StealPct = 100 * ratio(float64(ph.readings[len(ph.readings)-1].steal-ph.readings[0].steal),
		float64(ph.readings[len(ph.readings)-1].host-ph.readings[0].host))
	ok := float64(len(okLat))
	rec.Latency = summarizeLatency(okLat)
	rec.EndToEnd = map[string]float64{
		"setup_s":        median(ph.setups),
		"p50_ms":         rec.Latency.P50Ms,
		"throughput_rps": ratio(ok, secs),
		"units_per_s":    ratio(units, secs),
		"cpu_us_per_req": float64(cpu) * ticksToMicros / max(ok, 1),
		"rss_peak_mb":    ph.rssPeakMB,
	}
	if cfg.trace {
		rec.PerLayer = counterMetrics(ph)
		tr, err := tracedPhase(cfg, orc, at, pristine, work)
		if err != nil {
			return nil, err
		}
		for k, v := range tr.metrics {
			rec.PerLayer[k] = v
		}
		rec.Attempted += tr.attempted
		for why, n := range tr.failures {
			fails[why] += n
			rec.Failed += n
		}
		if len(fails) > 0 {
			rec.FailureKinds = fails
		}
		rec.SpansFile = tr.spansFile
	}
	rec.ErrorRatio = float64(rec.Failed) / float64(rec.Attempted)
	rec.RefChecked, rec.RefMaxRelErr = orc.refChecked, orc.maxRelErr
	return rec, nil
}

// judge returns why a response is wrong, or "" when it is right: the
// status must be 200 and the body byte-identical to the oracle's, whose
// measures must in turn pass the reference-form check.
func judge(orc *oracle, r *request, status int, body digest) string {
	e := orc.expect(r)
	switch {
	case status == 0:
		return "transport error"
	case status == 429:
		return "shed (429)"
	case status != 200:
		return fmt.Sprintf("status %d", status)
	case e.status != 200:
		return fmt.Sprintf("oracle status %d", e.status)
	case e.refErr != "":
		return "reference mismatch: " + e.refErr
	case body != e.body:
		return "body differs from the cache-off oracle"
	}
	return ""
}

// phaseResult is what the measured phase against the child collected.
type phaseResult struct {
	setups       []float64
	warm         []sample // the untimed warm-up requests
	samples      []sample
	readings     []reading // at the start and each whole second of the phase
	clientCPU    time.Duration
	rssPeakMB    float64
	before, stop statzPair
}

// measuredPhase starts heterod setupStarts times (timing each start), then
// drives the workload's warm-up and measured phase at the last one, and
// reads its CPU time and peak RSS from /proc. With tracing on it also
// snapshots /v1/statz and the heap profile page around the measured phase.
func measuredPhase(cfg runConfig, flags []string, logPath string) (*phaseResult, error) {
	w := cfg.w
	ph := &phaseResult{}
	var c *child
	for k := 0; k < setupStarts; k++ {
		ch, d, err := startChild(cfg.heterod, flags, logPath)
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, d.Seconds())
		if k == setupStarts-1 {
			c = ch
		} else if err := ch.stop(); err != nil {
			return nil, fmt.Errorf("stopping heterod: %w", err)
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = c.stop() // error path: the run is already failing
		}
	}()
	pid := c.cmd.Process.Pid
	client := &http.Client{Timeout: time.Minute} // statz and heap page only
	defer client.CloseIdleConnections()
	var open []*conn
	defer func() {
		for _, k := range open {
			k.close()
		}
	}()
	dial := func() sender {
		k := &conn{addr: strings.TrimPrefix(c.base, "http://")}
		open = append(open, k)
		return func(r *request) (int, digest) { return k.do(r, nil) }
	}
	// The stream's first w.warmup requests fill heterod's caches, untimed;
	// the measured phase sends the rest on fresh connections.
	gen := func(i int) request { return w.gen(cfg.seed, i) }
	if w.warmup > 0 {
		ph.warm = closedLoop(time.Now(), gen, requestTimeout, w.warmup, conns(), dial)
		for _, k := range open {
			k.close()
		}
	}
	measured := func(i int) request { return gen(w.warmup + i) }
	var err error
	if cfg.trace {
		if ph.before, err = snapshot(client, c); err != nil {
			return nil, err
		}
	}
	runtime.GC() // the oracle's garbage is not the measured phase's to collect
	var ru0, ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	start := time.Now()
	readings := sampleReadings(start, pid, cfg.seconds)
	ph.samples = closedLoop(start, measured, time.Duration(cfg.seconds)*time.Second, -1, conns(), dial)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	ph.clientCPU = time.Duration(ru1.Utime.Nano() + ru1.Stime.Nano() - ru0.Utime.Nano() - ru0.Stime.Nano())
	if ph.readings = <-readings; len(ph.readings) != cfg.seconds+1 {
		return nil, errors.New("heterod's CPU counters could not be read through the phase")
	}
	if cfg.trace {
		if ph.stop, err = snapshot(client, c); err != nil {
			return nil, err
		}
	}
	if ph.rssPeakMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	for _, k := range open {
		k.close()
	}
	client.CloseIdleConnections()
	stopped = true
	if err := c.stop(); err != nil {
		return nil, fmt.Errorf("stopping heterod: %w", err)
	}
	return ph, nil
}

func relFlags(flags []string, root string) []string {
	out := make([]string, len(flags))
	for i, f := range flags {
		if rel, err := filepath.Rel(root, f); err == nil && filepath.IsAbs(f) {
			f = rel
		}
		out[i] = f
	}
	return out
}

// report prints every metric of the run by name with its unit, writes the
// record, and ends with the one-line JSON result.
func report(stdout io.Writer, rec *record, out string) error {
	fp := rec.Fingerprint
	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%v  closed loop, %d conns, %d s  cpus=%d gomaxprocs=%d %s commit=%s tree=%s\n",
		rec.Workload, rec.Seed, rec.Trace, fp.Conns, fp.Seconds, fp.CPUs, fp.GOMAXPROCS, fp.GoVersion, fp.Commit, fp.TreeDigest)
	fmt.Fprintf(stdout, "  heterod %s\n", strings.Join(fp.HeterodFlags, " "))
	fmt.Fprintf(stdout, "  stream digest %s  attempted %d  failed %d  error_ratio %.4g  reference-checked %d (max rel err %.3g)\n",
		rec.StreamDigest, rec.Attempted, rec.Failed, rec.ErrorRatio, rec.RefChecked, rec.RefMaxRelErr)
	for why, n := range rec.FailureKinds {
		fmt.Fprintf(stdout, "  FAIL %d× %s\n", n, why)
	}
	fmt.Fprintf(stdout, "  tail_ms %.6g ms: the median over %d slices of p%.3f (%d of %d samples beyond); recorded, not declared (see NOTES.md)\n",
		rec.Latency.TailMs, rec.Latency.Slices, rec.Latency.TailPct, rec.Latency.TailBeyond, rec.Latency.SliceN)
	fmt.Fprintf(stdout, "  host steal %.1f%%\n", fp.StealPct)
	fmt.Fprintf(stdout, "  figures from windows %v; per-second host steal %% %.1f\n", fp.KeptWindows, fp.WindowStealPct)
	shown, defs := rec.EndToEnd, endToEnd
	if rec.Trace {
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "  (untraced child) %-24s %14.6g %s\n", d.name, rec.EndToEnd[d.name], d.unit)
		}
		shown, defs = rec.PerLayer, perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v := shown[d.name]
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(stdout, "  %-41s %14.6g %s\n", d.name, v, d.unit)
	}
	if rec.SpansFile != "" {
		fmt.Fprintf(stdout, "  spans written to %s\n", rec.SpansFile)
	}
	if path, err := writeRecord(rec, out); err != nil {
		return err
	} else {
		fmt.Fprintf(stdout, "  record written to %s\n", path)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func writeRecord(rec *record, out string) (string, error) {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Workload, rec.Seed, map[bool]int{false: 0, true: 1}[rec.Trace], time.Now().UnixNano()))
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
