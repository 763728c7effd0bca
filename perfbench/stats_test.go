package main

import (
	"math"
	"testing"
)

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n, rank int
		pct     float64
		ok      bool
	}{
		{10, 0, 0, false}, // no sample has ten beyond it
		{11, 0, 100.0 / 11, true},
		{100, 89, 90, true},
		{1000, 989, 99, true},
		{20000, 19989, 99.95, true},
	} {
		rank, pct, ok := tailRank(c.n)
		if ok != c.ok || (ok && (rank != c.rank || math.Abs(pct-c.pct) > 1e-9)) {
			t.Errorf("tailRank(%d) = %d, %v, %v; want %d, %v, %v", c.n, rank, pct, ok, c.rank, c.pct, c.ok)
		}
	}
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(100 - i) // descending: slicing must not assume order
	}
	s := summarizeLatency(ms)
	if s.TailMs != 90 || s.TailBeyond != 10 || s.TailPct != 90 || s.Slices != 1 || s.P50Ms != 50.5 {
		t.Errorf("summarizeLatency = %+v; want tail 90 at p90 with 10 beyond, p50 50.5, 1 slice", s)
	}
}

// The run's tail is the median over slices, so one stalled slice cannot
// move it.
func TestTailSlicesResistOneStall(t *testing.T) {
	ms := make([]float64, 10*minSliceSamples)
	for i := range ms {
		ms[i] = 1
	}
	for i := 0; i < 50; i++ {
		ms[i] = 100 // a stall at the start of the first slice
	}
	s := summarizeLatency(ms)
	if s.Slices != maxSlices || s.TailMs != 1 {
		t.Errorf("summarizeLatency = %+v; want %d slices and tail 1", s, maxSlices)
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), which the
// acceptance spread is computed with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 7}, 4.5, 7.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCalmWindows(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []bool
	}{
		{[]float64{0, 1, 9, 2}, []bool{true, true, false, true}},             // drop the burst
		{[]float64{30, 2, 6, 40, 7}, []bool{false, true, true, false, true}}, // too few calm: least-stolen half
		{[]float64{0, 0, 0}, []bool{true, true, true}},
	} {
		keep := calmWindows(c.steal)
		for i := range c.want {
			if keep[i] != c.want[i] {
				t.Errorf("calmWindows(%v) = %v; want %v", c.steal, keep, c.want)
				break
			}
		}
	}
}
