package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// spreads printed here match the acceptance check computed there.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 { // statistics.quantiles, method="exclusive"
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailRank applies the benchmark's tail rule to n samples: the highest
// percentile that still has at least tailBeyond samples above it. It
// returns the 0-based rank of that sample in ascending order, the
// percentile it stands for, and ok = false when the sample is too small
// to have any such percentile.
func tailRank(n int) (rank int, pct float64, ok bool) {
	if n <= tailBeyond {
		return 0, 0, false
	}
	rank = n - tailBeyond - 1
	return rank, 100 * float64(rank+1) / float64(n), true
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// The tail is reported per slice: the run's successful requests, in the
// order they were sent, are cut into up to maxSlices consecutive slices of
// at least minSliceSamples each; each slice gets the tail rule, and the
// run reports the median over slices. One multi-millisecond stall (a GC
// cycle, a descheduled vCPU) then moves one slice, not the whole run.
const (
	maxSlices       = 10
	minSliceSamples = 1000
)

// latencySummary is the latency part of a run's result.
type latencySummary struct {
	N          int     `json:"n"`
	P50Ms      float64 `json:"p50_ms"`
	TailMs     float64 `json:"tail_ms"`
	TailPct    float64 `json:"tail_pct"`    // percentile of the first slice's tail
	TailBeyond int     `json:"tail_beyond"` // samples beyond it, per slice
	Slices     int     `json:"slices"`
	SliceN     int     `json:"slice_n"` // samples in the first slice
}

// summarizeLatency reports the median of latencies given in milliseconds,
// in the order the requests were sent, and the median over slices of the
// tail-rule percentile.
func summarizeLatency(ms []float64) latencySummary {
	if len(ms) == 0 {
		return latencySummary{}
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), P50Ms: quantile(s, 0.5)}
	out.Slices = min(max(len(ms)/minSliceSamples, 1), maxSlices)
	var tails []float64
	for k := 0; k < out.Slices; k++ {
		sl := append([]float64(nil), ms[k*len(ms)/out.Slices:(k+1)*len(ms)/out.Slices]...)
		sort.Float64s(sl)
		rank, pct, ok := tailRank(len(sl))
		if !ok {
			rank, pct = len(sl)-1, 100
		}
		tails = append(tails, sl[rank])
		if k == 0 {
			out.TailPct, out.TailBeyond, out.SliceN = pct, len(sl)-rank-1, len(sl)
		}
	}
	out.TailMs = median(tails)
	return out
}
