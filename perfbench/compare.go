package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Compare mode reads the records of two commits' runs (base and head)
// and prints, for every workload × end-to-end metric, each side's median
// and quartiles and a verdict, following the pairing and bound rules of
// the benchmark's method:
//
//	improved    ≥ minPairs seed-paired runs, head better in ≥ 90% of the
//	            pairs (ties count for neither side), and the medians
//	            differ by more than the base runs' interquartile range
//	unresolved  the base runs' spread (IQR over median) exceeds the
//	            metric's bound, unless every head run beats every base run
//	worse       head's median is worse than base's by more than the bound
//	no worse    otherwise
//
//	perfbench compare -base DIR_OR_FILE[,...] -head DIR_OR_FILE[,...]

// minPairs is the fewest seed-paired runs a claimed improvement rests on.
const minPairs = 10

type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func compareMain(args []string, benchPath string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	base := fs.String("base", "", "records of the parent commit: files or directories, comma-separated")
	head := fs.String("head", "", "records of the change, likewise")
	if err := fs.Parse(args); err != nil || *base == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare -base DIR -head DIR")
		return 2
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	b, err := os.ReadFile(benchPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: reading bounds:", err)
		return 2
	}
	baseRecs, err1 := loadRecords(*base)
	headRecs, err2 := loadRecords(*head)
	if err1 != nil || err2 != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err1, err2)
		return 2
	}
	workloadsSeen := map[string]bool{}
	for _, r := range append(baseRecs, headRecs...) {
		workloadsSeen[r.Workload] = true
	}
	names := make([]string, 0, len(workloadsSeen))
	for n := range workloadsSeen {
		names = append(names, n)
	}
	sort.Strings(names)
	worse := false
	for _, wl := range names {
		if b, h := settings(baseRecs, wl), settings(headRecs, wl); b != h {
			fmt.Fprintf(out, "warning: %s ran with different settings: base %s, head %s\n", wl, b, h)
		}
	}
	fmt.Fprintf(out, "%-12s %-15s %-5s %12s %25s %12s %25s %8s %7s  %s\n",
		"workload", "metric", "unit", "base p50", "base [q1, q3]", "head p50", "head [q1, q3]", "Δ%", "wins", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			bv, hv := bySeed(baseRecs, wl, m.Name), bySeed(headRecs, wl, m.Name)
			c := compareMetric(bv, hv, m.Better, m.Bound)
			if c.n == 0 {
				continue
			}
			worse = worse || c.verdict == "worse"
			fmt.Fprintf(out, "%-12s %-15s %-5s %12.5g %25s %12.5g %25s %+7.2f%% %3d/%-3d  %s\n",
				wl, m.Name, m.Unit, c.baseMed, fmt.Sprintf("[%.5g, %.5g]", c.baseQ1, c.baseQ3),
				c.headMed, fmt.Sprintf("[%.5g, %.5g]", c.headQ1, c.headQ3),
				100*(c.headMed/c.baseMed-1), c.wins, c.pairs, c.verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// loadRecords reads the untraced run records from a comma-separated
// list of files and directories (directories are searched for *.json).
func loadRecords(list string) ([]record, error) {
	var recs []record
	for _, p := range strings.Split(list, ",") {
		files := []string{p}
		if st, err := os.Stat(p); err != nil {
			return nil, err
		} else if st.IsDir() {
			if files, err = filepath.Glob(filepath.Join(p, "*.json")); err != nil {
				return nil, err
			}
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			var r record
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			if !r.Trace {
				recs = append(recs, r)
			}
		}
	}
	return recs, nil
}

// settings summarizes how a workload's runs were driven (length,
// connections); a comparison is only fair when both sides agree.
func settings(recs []record, workload string) string {
	seen := map[string]bool{}
	var out []string
	for _, r := range recs {
		fp := r.Fingerprint
		s := fmt.Sprintf("%ds %d conns", fp.Seconds, fp.Conns)
		if r.Workload == workload && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "; ")
}

// bySeed collects one metric of one workload, keyed by seed.
func bySeed(recs []record, workload, metric string) map[uint64][]float64 {
	out := map[uint64][]float64{}
	for _, r := range recs {
		if v, ok := r.EndToEnd[metric]; ok && r.Workload == workload {
			out[r.Seed] = append(out[r.Seed], v)
		}
	}
	return out
}

type comparison struct {
	n, pairs, wins          int
	baseMed, baseQ1, baseQ3 float64
	headMed, headQ1, headQ3 float64
	verdict                 string
}

// compareMetric applies the verdict rules to one metric's base and head
// runs, paired by seed (the i-th run of a seed on one side with the i-th
// on the other).
func compareMetric(base, head map[uint64][]float64, better string, bnd float64) comparison {
	var bv, hv []float64
	var c comparison
	sign := 1.0 // positive differences favour head
	if better == "lower" {
		sign = -1
	}
	for seed, bs := range base {
		bv = append(bv, bs...)
		hs := head[seed]
		for i := 0; i < len(bs) && i < len(hs); i++ {
			c.pairs++
			if d := sign * (hs[i] - bs[i]); d > 0 {
				c.wins++
			}
		}
	}
	for _, hs := range head {
		hv = append(hv, hs...)
	}
	if len(bv) == 0 || len(hv) == 0 {
		return c
	}
	c.n = len(bv) + len(hv)
	c.baseMed, c.headMed = median(bv), median(hv)
	c.baseQ1, c.baseQ3 = quartiles(bv)
	c.headQ1, c.headQ3 = quartiles(hv)
	gain := sign * (c.headMed - c.baseMed)
	spread := (c.baseQ3 - c.baseQ1) / math.Abs(c.baseMed)
	allBetter := true
	for _, h := range hv {
		for _, b := range bv {
			allBetter = allBetter && sign*(h-b) > 0
		}
	}
	switch {
	case c.pairs >= minPairs && float64(c.wins) >= 0.9*float64(c.pairs) && gain > c.baseQ3-c.baseQ1:
		c.verdict = "improved"
	case spread > bnd && !allBetter:
		c.verdict = "unresolved"
	case -gain > bnd*math.Abs(c.baseMed):
		c.verdict = "worse"
	default:
		c.verdict = "no worse"
	}
	return c
}
