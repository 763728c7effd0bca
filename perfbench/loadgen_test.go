package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A closed loop sends a connection's next request only when the previous
// one returns, and stops issuing at the deadline.
func TestClosedLoopStopsAtDeadline(t *testing.T) {
	var inFlight, maxInFlight atomic.Int32
	do := func(r *request) (int, digest) {
		n := inFlight.Add(1)
		for m := maxInFlight.Load(); n > m && !maxInFlight.CompareAndSwap(m, n); m = maxInFlight.Load() {
		}
		time.Sleep(5 * time.Millisecond)
		inFlight.Add(-1)
		return 200, digest{}
	}
	gen := func(i int) request { return request{idx: i} }
	samples := closedLoop(time.Now(), gen, 50*time.Millisecond, -1, 2, func() sender { return do })
	if maxInFlight.Load() > 2 {
		t.Errorf("%d requests in flight on 2 connections", maxInFlight.Load())
	}
	if len(samples) < 4 || len(samples) > 24 {
		t.Errorf("%d samples in 50 ms of 5 ms requests on 2 connections", len(samples))
	}
	for i, s := range samples {
		if s.idx != i {
			t.Fatalf("samples out of order or missing: %d at %d", s.idx, i)
		}
	}
}

// A closed loop given a request count, as the warm-up is, sends exactly
// that many requests, each once.
func TestClosedLoopStopsAtCount(t *testing.T) {
	do := func(r *request) (int, digest) { return 200, digest{} }
	gen := func(i int) request { return request{idx: i} }
	samples := closedLoop(time.Now(), gen, time.Minute, 7, 2, func() sender { return do })
	if len(samples) != 7 {
		t.Fatalf("%d samples; want 7", len(samples))
	}
	for i, s := range samples {
		if s.idx != i {
			t.Fatalf("samples out of order or repeated: %d at %d", s.idx, i)
		}
	}
}

// A refused request and a failed connection both come back as failures.
func TestRefusedAndFailedRequestsCountAsErrors(t *testing.T) {
	orc := newOracle()
	r := genMeasureHot(1, 0)
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"server at capacity; retry later"}`, http.StatusTooManyRequests)
	}))
	defer shed.Close()
	k := &conn{addr: strings.TrimPrefix(shed.URL, "http://")}
	defer k.close()
	status, body := k.do(&r, nil)
	if why := judge(orc, &r, status, body); why != "shed (429)" {
		t.Errorf("429 judged %q", why)
	}
	gone := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		conn, _, _ := w.(http.Hijacker).Hijack()
		conn.Close() // no response at all
	}))
	defer gone.Close()
	k2 := &conn{addr: strings.TrimPrefix(gone.URL, "http://")}
	defer k2.close()
	status, body = k2.do(&r, nil)
	if why := judge(orc, &r, status, body); why != "transport error" {
		t.Errorf("dropped connection judged %q", why)
	}
}
