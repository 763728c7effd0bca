package api

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"hetero/internal/spill"
)

// TestSpillOfferBoundUnderRace: concurrent offers must never enqueue more
// than spillQueueMaxBytes. The old load-then-add check let every racing
// offer observe room and overshoot together; the reserve-then-undo scheme
// holds the bound no matter the interleaving. Run with -race (the Makefile
// test target does) to also catch accounting races.
func TestSpillOfferBoundUnderRace(t *testing.T) {
	// No writeLoop: nothing drains the queue, so the byte bound is the
	// only thing standing between the offers and the entry-capacity cap.
	tier := &spillTier{
		queue: make(chan spillItem, spillQueueEntries),
		done:  make(chan struct{}),
	}
	body := make([]byte, 1<<20)
	const goroutines, perG = 32, 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tier.offer(spillLayerCanonical, fmt.Sprintf("k-%d-%d", g, i), body)
			}
		}(g)
	}
	wg.Wait()

	var queued int64
	accepted := 0
drain:
	for {
		select {
		case it := <-tier.queue:
			queued += int64(len(it.key) + len(it.body))
			accepted++
		default:
			break drain
		}
	}
	if queued > spillQueueMaxBytes {
		t.Fatalf("queue held %d bytes, bound is %d", queued, spillQueueMaxBytes)
	}
	if got := tier.queuedBytes.Load(); got != queued {
		t.Fatalf("queuedBytes account %d, actual queued %d", got, queued)
	}
	if drops := tier.drops.Load(); int(drops) != goroutines*perG-accepted {
		t.Fatalf("drops %d + accepted %d != offers %d", drops, accepted, goroutines*perG)
	}
	if accepted == 0 {
		t.Fatal("every offer dropped — bound test exercised nothing")
	}
}

// newWriteThroughServer builds a server whose memory tier comfortably
// holds the working set (nothing evicts — the write-through offers and the
// shutdown flush are the only routes to disk) on top of a spill store in
// dir.
func newWriteThroughServer(t *testing.T, dir string) *Server {
	t.Helper()
	st, err := spill.Open(spill.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerWithCache(CacheConfig{
		Entries: 256, MaxBytes: 1 << 20, Shards: 1, Coalesce: true,
	})
	s.EnableSpillOptions(st, SpillOptions{WriteThrough: true})
	return s
}

// TestSpillWriteThroughRestartRoundtrip is the tentpole's end-to-end
// contract at the API layer: populate over HTTP-equivalent entry points,
// shut the spill tier down cleanly, reopen the same directory under a
// fresh server (empty memory), and every previously served response —
// point, buffered /v1/batch, and streamed /v1/batch — must come back
// byte-identical with zero re-evaluations.
func TestSpillWriteThroughRestartRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s1 := newWriteThroughServer(t, dir)

	const n = 8
	queries := make([]string, n)
	want := make([][]byte, n)
	for i := range queries {
		queries[i] = fmt.Sprintf("profile=1,0.5,0.%03d", i+101)
		status, body := s1.MeasureQuery(queries[i])
		if status != 200 {
			t.Fatalf("query %d: status %d", i, status)
		}
		want[i] = body
	}
	if s1.canon.mem.counters().evicted != 0 {
		t.Fatal("working set evicted; this test must exercise write-through, not evict-to-disk")
	}
	batchReq := bigBatchBody(t, 7, 450)
	status, wantBatch, msg := s1.BatchBody(batchReq)
	if status != 200 {
		t.Fatalf("batch: %d %s", status, msg)
	}
	streamReq := bigBatchBody(t, 8, 450)
	var streamBuf bytes.Buffer
	if status, msg, err := s1.BatchBodyStream(context.Background(), &streamBuf, streamReq); err != nil || status != 200 {
		t.Fatalf("stream: status %d msg %q err %v", status, msg, err)
	}
	wantStream := append([]byte(nil), streamBuf.Bytes()...)

	// Clean shutdown: drains the write-through queue and flushes whatever
	// the queue bound dropped. Everything served above is now on disk.
	s1.CloseSpill()

	s2 := newWriteThroughServer(t, dir)
	t.Cleanup(s2.CloseSpill)
	for i, q := range queries {
		status, body := s2.MeasureQuery(q)
		if status != 200 {
			t.Fatalf("restart query %d: status %d", i, status)
		}
		if !bytes.Equal(body, want[i]) {
			t.Fatalf("restart query %d diverged:\n got %q\nwant %q", i, body, want[i])
		}
	}
	status, got, msg := s2.BatchBody(batchReq)
	if status != 200 || !bytes.Equal(got, wantBatch) {
		t.Fatalf("restart batch diverged (status %d %s)", status, msg)
	}
	streamBuf.Reset()
	if status, msg, err := s2.BatchBodyStream(context.Background(), &streamBuf, streamReq); err != nil || status != 200 {
		t.Fatalf("restart stream: status %d msg %q err %v", status, msg, err)
	}
	if !bytes.Equal(streamBuf.Bytes(), wantStream) {
		t.Fatal("restart streamed batch diverged")
	}
	if evals := s2.MeasureEvals(); evals != 0 {
		t.Fatalf("restarted server ran %d evaluations, want 0", evals)
	}
	ss := s2.spillStats()
	if !ss.WriteThrough {
		t.Fatal("statz does not report write-through")
	}
	if ss.Hits == 0 {
		t.Fatal("restarted server reported no spill hits")
	}
}

// TestSpillRestartTornTailRecovery: a crash mid-append leaves a torn tail
// on the newest segment; reopening through the API layer must truncate it
// and still serve every fully committed response byte-identically with
// zero re-evaluations.
func TestSpillRestartTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s1 := newWriteThroughServer(t, dir)
	const n = 4
	queries := make([]string, n)
	want := make([][]byte, n)
	for i := range queries {
		queries[i] = fmt.Sprintf("profile=1,0.5,0.%03d", i+301)
		status, body := s1.MeasureQuery(queries[i])
		if status != 200 {
			t.Fatalf("query %d: status %d", i, status)
		}
		want[i] = body
	}
	s1.CloseSpill()

	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files (err %v)", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A header-sized prefix of garbage: what a record interrupted by a
	// crash before its CRC and body made it to disk looks like.
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x40, 0, 0, 0, 0x40, 0, 0, 0, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := newWriteThroughServer(t, dir)
	t.Cleanup(s2.CloseSpill)
	for i, q := range queries {
		status, body := s2.MeasureQuery(q)
		if status != 200 || !bytes.Equal(body, want[i]) {
			t.Fatalf("post-recovery query %d diverged (status %d)", i, status)
		}
	}
	if evals := s2.MeasureEvals(); evals != 0 {
		t.Fatalf("post-recovery server ran %d evaluations, want 0", evals)
	}
}
