package main

import (
	"strings"
	"testing"
)

// The same seed gives the same request stream; another seed another one.
func TestStreamDigestIsSeeded(t *testing.T) {
	for name, w := range workloads {
		a, b, c := streamDigest(w, 1), streamDigest(w, 1), streamDigest(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", name, a)
		}
	}
}

// Respelled values must survive query decoding: a '+' would read as a space.
func TestRespelledRhoIsQuerySafe(t *testing.T) {
	for _, v := range []float64{1, 0.5, 1e-5} {
		if s := string(appendRhoRespelled(nil, v)); strings.ContainsAny(s, "+ ") {
			t.Errorf("respelled %v as %q", v, s)
		}
	}
}

// Every generated request is valid for heterod: each workload's kinds get
// a 200 from a server with the workload's configuration.
func TestGeneratedRequestsAreServed(t *testing.T) {
	for _, gen := range []func(uint64, int) request{genMeasureHot, genBatchFresh, genPlanMix} {
		for i := 0; i < 12; i++ {
			r := gen(9, i)
			if status, body := serve(t, &r); status != 200 {
				t.Errorf("%s request %d: status %d %s", r.kind, i, status, body)
			}
		}
	}
}
