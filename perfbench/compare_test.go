package main

import "testing"

func seeds(vals ...float64) map[uint64][]float64 {
	m := map[uint64][]float64{}
	for i, v := range vals {
		m[uint64(i)] = []float64{v}
	}
	return m
}

func TestCompareVerdicts(t *testing.T) {
	base := seeds(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name   string
		head   map[uint64][]float64
		better string
		want   string
	}{
		{"faster everywhere", seeds(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "lower", "improved"},
		{"same", seeds(100, 101, 99, 100, 102, 98, 100, 101, 99, 100), "lower", "no worse"},
		{"a bit slower, within bound", seeds(105, 106, 104, 105, 107, 103, 105, 106, 104, 105), "lower", "no worse"},
		{"much slower", seeds(130, 131, 129, 130, 132, 128, 130, 131, 129, 130), "lower", "worse"},
		{"higher is better, lower came", seeds(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "higher", "worse"},
	} {
		if got := compareMetric(base, c.head, c.better, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Too few pairs cannot show a gain.
	if got := compareMetric(seeds(100, 101, 99), seeds(80, 81, 79), "lower", 0.1).verdict; got != "no worse" {
		t.Errorf("3 pairs: verdict %q, want no worse", got)
	}
	// A base spread wider than the bound leaves the metric unresolved.
	noisy := seeds(50, 150, 80, 120, 100, 60, 140, 90, 110, 100)
	if got := compareMetric(noisy, seeds(105, 95, 100, 110, 90, 100, 105, 95, 100, 100), "lower", 0.1).verdict; got != "unresolved" {
		t.Errorf("noisy base: verdict %q, want unresolved", got)
	}
}
