package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"hetero/internal/api"
)

func TestServeEndToEnd(t *testing.T) {
	// Bind an ephemeral port and exercise the real TCP path once, then shut
	// down gracefully via context cancellation (the signal path in
	// production) and assert a clean exit.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{
		Handler:           api.NewServer().Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, srv, 5*time.Second, nil) }()

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + ln.Addr().String() + "/v1/measure?profile=1,0.5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out api.MeasureResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.X <= 0 {
		t.Fatalf("X = %v", out.X)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after cancellation")
	}
}

func TestServeDrainsInFlightRequests(t *testing.T) {
	// A request in flight when shutdown begins must still complete.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	slow := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		<-slow
		w.WriteHeader(200)
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, srv, 5*time.Second, nil) }()

	got := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			got <- -1
			return
		}
		resp.Body.Close()
		got <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // let the request reach the handler
	cancel()                           // begin the drain while /slow is blocked
	time.Sleep(100 * time.Millisecond)
	close(slow)
	if code := <-got; code != 200 {
		t.Fatalf("in-flight request got %d, want 200", code)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown returned %v", err)
	}
}

func TestServeDrainMidFlushAnswersBatchedItems(t *testing.T) {
	// Regression for the batcher drain ordering: requests queued in the
	// admission batcher when SIGTERM arrives — the flush timer still pending
	// — must be flushed and answered before the drain completes. serve()
	// guarantees this by running CloseCoalesce only after srv.Shutdown
	// returns, so the collector keeps flushing while handlers drain.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	apiSrv := api.NewServer()
	// A long max-wait keeps the herd queued in the collector so the drain
	// begins mid-flush, before the timer seals the batch.
	apiSrv.EnableCoalesce(api.CoalesceConfig{MaxBatch: 64, MaxWait: 500 * time.Millisecond})
	srv := &http.Server{Handler: apiSrv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, srv, 10*time.Second, apiSrv.CloseCoalesce) }()
	base := "http://" + ln.Addr().String()

	const herd = 4
	got := make(chan int, herd)
	for i := 0; i < herd; i++ {
		go func(i int) {
			resp, err := http.Get(fmt.Sprintf("%s/v1/measure?profile=1,0.5,0.25&tau=0.1%d", base, i))
			if err != nil {
				got <- -1
				return
			}
			io.ReadAll(resp.Body)
			resp.Body.Close()
			got <- resp.StatusCode
		}(i)
	}

	// Poll /v1/statz until all herd members sit in the batcher, then begin
	// the drain while they are still queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var statz api.StatzResponse
		resp, err := http.Get(base + "/v1/statz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&statz)
			resp.Body.Close()
		}
		if err == nil && statz.Coalesce.Submitted >= herd {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("herd never reached the batcher (submitted = %d)", statz.Coalesce.Submitted)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()

	for i := 0; i < herd; i++ {
		if code := <-got; code != 200 {
			t.Fatalf("batched request answered %d during drain, want 200", code)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain with items mid-flush")
	}
}

func TestPprofHandlerServesProfiles(t *testing.T) {
	// The -pprof-addr mux must expose the standard debug endpoints. Use
	// httptest against the handler directly; profile?seconds=... is not
	// exercised (a CPU profile blocks for its duration).
	ts := httptest.NewServer(pprofHandler())
	defer ts.Close()
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/cmdline",
		"/debug/pprof/heap?debug=1",
		"/debug/pprof/goroutine?debug=1",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d (body %q)", path, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty body", path)
		}
	}
}

func TestRunStartsPprofListener(t *testing.T) {
	// End-to-end: run() with -pprof-addr serves the profiler on the second
	// listener and still drains cleanly. run() owns its listeners, so :0 is
	// not an option; use fixed loopback ports and poll until the profiler
	// answers.
	const apiAddr, profAddr = "127.0.0.1:18098", "127.0.0.1:18099"
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", apiAddr, "-pprof-addr", profAddr, "-grace", "2s",
			"-coalesce", "-coalesce-max", "8", "-coalesce-wait", "1ms"})
	}()
	client := &http.Client{Timeout: 2 * time.Second}
	var resp *http.Response
	var err error
	for i := 0; i < 50; i++ {
		resp, err = client.Get("http://" + profAddr + "/debug/pprof/cmdline")
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("pprof listener never came up: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) == 0 {
		t.Fatalf("cmdline: status %d, body %q", resp.StatusCode, body)
	}
	// The serving address must NOT expose the profiler.
	if resp, err := client.Get("http://" + apiAddr + "/debug/pprof/"); err == nil {
		resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Fatal("profiler exposed on the serving address")
		}
	}
	// run() blocks until a signal; deliver one to exercise the drain.
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}
}

func TestBuildClusterTier(t *testing.T) {
	if tier, err := buildClusterTier("", "", 0, 0); err != nil || tier != nil {
		t.Fatalf("no flags: tier=%v err=%v", tier, err)
	}
	if _, err := buildClusterTier("a:1,b:2", "", 0, 0); err == nil {
		t.Fatal("-peers without -self accepted")
	}
	if _, err := buildClusterTier("", "a:1", 0, 0); err == nil {
		t.Fatal("-self without -peers accepted")
	}
	tier, err := buildClusterTier(" a:1 , b:2 ", "a:1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tier.Ring().Size() != 2 || tier.Self() != "a:1" {
		t.Fatalf("tier: size=%d self=%q", tier.Ring().Size(), tier.Self())
	}
}

func TestRunRejectsBadAddr(t *testing.T) {
	if err := run([]string{"-addr", "256.256.256.256:99999"}); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestDrainCompletesFaultySimWhileShedding(t *testing.T) {
	// Regression for the shutdown path: an in-flight POST /v1/simulate/faulty
	// must run to completion inside the SIGTERM grace window, while requests
	// arriving after the drain begins are turned away.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	inner := api.NewServer().Handler()
	gate := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/simulate/faulty" {
			close(entered)
			<-release
		}
		inner.ServeHTTP(w, r)
	})
	srv := &http.Server{Handler: gate, ReadHeaderTimeout: 5 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, srv, 10*time.Second, nil) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		code int
		body []byte
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/simulate/faulty", "application/json",
			strings.NewReader(`{"profile":[1,0.5],"lifespan":3600,"replan":true,"faults":[{"kind":"crash","computer":1,"at":900}]}`))
		if err != nil {
			got <- result{code: -1}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		got <- result{code: resp.StatusCode, body: body}
	}()

	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("faulty request never reached the handler")
	}
	cancel() // SIGTERM equivalent: the drain begins with the request in flight
	time.Sleep(100 * time.Millisecond)

	// New arrivals during the drain are turned away (the listener is closed).
	if resp, err := http.Get(base + "/v1/healthz"); err == nil {
		resp.Body.Close()
		t.Fatalf("new request served during drain: %d", resp.StatusCode)
	}

	close(release)
	r := <-got
	if r.code != 200 {
		t.Fatalf("in-flight simulation got %d (body %q), want 200", r.code, r.body)
	}
	var rep map[string]interface{}
	if err := json.Unmarshal(r.body, &rep); err != nil || rep["degradation"] == nil {
		t.Fatalf("drained response not a degradation report: %q", r.body)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown returned %v", err)
	}
}
