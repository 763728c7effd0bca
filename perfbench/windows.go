package main

import (
	"sort"
	"time"
)

// The host this benchmark runs on is shared. The hypervisor takes CPU
// time away ("steal") in bursts that come and go from one second to the
// next and can reach a third of all time; latencies and rates
// measured through a burst describe the neighbours, not heterod. So the
// measured phase is cut into one-second windows, host steal is read from
// /proc/stat for each, and windows with more than maxStealPct are left
// out of the end-to-end figures, keeping at least the calmer half. Both
// commits of a comparison are measured the same way; the record keeps
// every window's steal and which windows were used.

// reading is a snapshot of host and heterod CPU counters.
type reading struct{ host, steal, cpu int64 }

func takeReading(pid int) (reading, error) {
	host, steal, err := hostTicks()
	if err != nil {
		return reading{}, err
	}
	cpu, err := cpuTicks(pid)
	return reading{host, steal, cpu}, err
}

// sampleReadings takes a reading now and then at each of the next n whole
// seconds after start, and delivers them all when done.
func sampleReadings(start time.Time, pid, n int) <-chan []reading {
	out := make(chan []reading, 1)
	r0, err0 := takeReading(pid)
	go func() {
		rs := []reading{r0}
		for k := 1; k <= n && err0 == nil; k++ {
			sleepUntil(start, time.Duration(k)*time.Second)
			r, err := takeReading(pid)
			if err != nil {
				break // heterod gone: the phase itself will report why
			}
			rs = append(rs, r)
		}
		out <- rs
	}()
	return out
}

// windowSteal is each window's host steal as a percentage of host time.
func windowSteal(rs []reading) []float64 {
	out := make([]float64, 0, len(rs))
	for k := 1; k < len(rs); k++ {
		out = append(out, 100*ratio(float64(rs[k].steal-rs[k-1].steal), float64(rs[k].host-rs[k-1].host)))
	}
	return out
}

// maxStealPct is the host steal above which a window is left out.
const maxStealPct = 5

// calmWindows marks the windows whose figures count: every window with at
// most maxStealPct steal, or, when that is fewer than half of them, the
// half (rounded up) with the least steal, earlier windows first among
// equals.
func calmWindows(steal []float64) []bool {
	keep := make([]bool, len(steal))
	n := 0
	for k, s := range steal {
		if s <= maxStealPct {
			keep[k] = true
			n++
		}
	}
	if 2*n >= len(steal) {
		return keep
	}
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	for _, i := range idx[:(len(steal)+1)/2] {
		keep[i] = true
	}
	return keep
}

// windowOf is the window a sample belongs to: the one its request was
// sent in.
func windowOf(s sample) int { return int((s.done - s.latency) / time.Second) }
