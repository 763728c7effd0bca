package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

type digest = [sha256.Size]byte

func digestOf(b []byte) digest { return sha256.Sum256(b) }

// sample is the outcome of one request as the generator saw it.
type sample struct {
	idx     int
	kind    string
	units   int
	latency time.Duration
	done    time.Duration // completion, relative to the run start
	status  int           // 0 on a transport error
	body    digest
}

// conn is one keep-alive HTTP/1.1 connection driven without net/http's
// Transport: the request is written and the response read on the calling
// goroutine, so a round trip costs the generator no goroutine hand-offs,
// whose wake-up latency would otherwise be part of every latency measured.
type conn struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
}

// do sends r with the extra header fields and digests the whole response
// body. A transport error returns status 0 and drops the connection; the
// next call dials again.
func (k *conn) do(r *request, header http.Header) (status int, body digest) {
	if k.c == nil {
		c, err := net.Dial("tcp", k.addr)
		if err != nil {
			return 0, body
		}
		k.c, k.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	var rd io.Reader
	if len(r.body) > 0 {
		rd = bytes.NewReader(r.body)
	}
	hr, err := http.NewRequest(r.method, "http://"+k.addr+r.target, rd)
	if err != nil {
		return 0, body
	}
	for name, v := range header {
		hr.Header[name] = v
	}
	_ = k.c.SetDeadline(time.Now().Add(requestTimeout))
	if err := hr.Write(k.c); err != nil {
		k.close()
		return 0, body
	}
	resp, err := http.ReadResponse(k.br, hr)
	if err != nil {
		k.close()
		return 0, body
	}
	h := sha256.New()
	_, err = io.Copy(h, resp.Body)
	resp.Body.Close()
	if err != nil {
		k.close()
		return 0, body
	}
	if resp.Close {
		k.close()
	}
	copy(body[:], h.Sum(nil))
	return resp.StatusCode, body
}

// requestTimeout bounds one round trip; a request that takes longer fails.
const requestTimeout = 2 * time.Minute

func (k *conn) close() {
	if k.c != nil {
		k.c.Close()
		k.c = nil
	}
}

// sender performs one request for the load loops; tests substitute fakes.
type sender func(r *request) (status int, body digest)

// dialer returns the sender for one more connection.
type dialer func() sender

// spinWindow is how early sleepUntil stops sleeping to spin: a little
// more than nanosleep's typical overshoot.
const spinWindow = 80 * time.Microsecond

// sleepUntil returns at start+due: it sleeps in the kernel until just
// before, then spins.
func sleepUntil(start time.Time, due time.Duration) {
	for {
		d := due - time.Since(start)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
		}
	}
}

// closedLoop runs conns connections, each sending gen(i) for the next
// unclaimed i as soon as its previous request returns, until d has passed
// or, when n ≥ 0, n requests were claimed. Requests in flight at the
// deadline finish and count.
func closedLoop(start time.Time, gen func(i int) request, d time.Duration, n, conns int, dial dialer) (samples []sample) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		do := dial()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if n >= 0 && i >= n {
					return
				}
				r := gen(i)
				t0 := time.Since(start)
				status, body := do(&r)
				done := time.Since(start)
				s := sample{
					idx: r.idx, kind: r.kind, units: r.units,
					latency: done - t0, done: done, status: status, body: body,
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(samples, func(a, b int) bool { return samples[a].idx < samples[b].idx })
	return samples
}
