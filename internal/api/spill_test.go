package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetero/internal/cluster"
	"hetero/internal/spill"
)

// newSpillServer builds a server with deliberately tiny in-memory caches
// (so the working set evicts) backed by a spill store in a temp dir. The
// returned dir lets corruption tests reach the segment files.
func newSpillServer(t *testing.T, maxBytes int64) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := spill.Open(spill.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerWithCache(CacheConfig{
		Entries: 256, MaxBytes: maxBytes, Shards: 1, Coalesce: true,
	})
	s.EnableSpill(st)
	t.Cleanup(s.CloseSpill)
	return s, dir
}

// waitSpill polls until cond holds, failing after a deadline. The evict
// writer is asynchronous by design (the sink must not block a shard
// lock), so tests synchronize on observable store state.
func waitSpill(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpillMeasureEvictRoundtrip: canonical measure entries evicted from
// the byte-budget cache must land in the spill tier and serve later
// requests without re-evaluation, then be promoted back into memory.
func TestSpillMeasureEvictRoundtrip(t *testing.T) {
	s, _ := newSpillServer(t, 700) // ~2 resident entries
	const n = 12
	queries := make([]string, n)
	first := make([][]byte, n)
	for i := range queries {
		queries[i] = fmt.Sprintf("profile=1,0.5,0.%03d", i+101)
		status, body := s.MeasureQuery(queries[i])
		if status != 200 {
			t.Fatalf("query %d: status %d", i, status)
		}
		first[i] = body
	}
	evalsWarm := s.MeasureEvals()
	if evalsWarm == 0 {
		t.Fatal("warm pass ran no evaluations")
	}
	// Every eviction the canonical cache reported must reach the store
	// (the queue is far larger than this working set, so no drops).
	waitSpill(t, "evict writes to drain", func() bool {
		ss := s.spillStats()
		return ss.Writes >= s.cache.counters().evicted && ss.DroppedWrites == 0
	})
	if ev := s.cache.counters().evicted; ev == 0 {
		t.Fatal("working set did not overflow the memory cache")
	}

	// The oldest key is long evicted: the re-request must be a spill hit,
	// byte-identical, with zero new evaluations.
	status, body := s.MeasureQuery(queries[0])
	if status != 200 {
		t.Fatalf("re-request status %d", status)
	}
	if !bytes.Equal(body, first[0]) {
		t.Fatalf("spill hit diverged:\n got %q\nwant %q", body, first[0])
	}
	if got := s.MeasureEvals(); got != evalsWarm {
		t.Fatalf("spill hit ran %d new evaluations", got-evalsWarm)
	}
	hits := s.spillStats().Hits
	if hits == 0 {
		t.Fatal("spill hits = 0 after serving an evicted key")
	}

	// Promotion: the hit's fill insert put the body back in memory, so an
	// immediate repeat must not touch the disk tier again.
	if status, body = s.MeasureQuery(queries[0]); status != 200 || !bytes.Equal(body, first[0]) {
		t.Fatalf("promoted repeat: status %d", status)
	}
	if got := s.spillStats().Hits; got != hits {
		t.Fatalf("promoted repeat consulted spill again (hits %d -> %d)", hits, got)
	}
	if got := s.MeasureEvals(); got != evalsWarm {
		t.Fatal("promoted repeat re-evaluated")
	}
}

// TestSpillRawFrontRoundtrip: large raw queries (≥ rawFastPathMinQuery)
// evicted from the raw front must round-trip through disk under the raw
// layer key and serve re-requests with zero parsing or evaluation.
func TestSpillRawFrontRoundtrip(t *testing.T) {
	s, _ := newSpillServer(t, 64<<10)
	mkQuery := func(i int) string {
		var b strings.Builder
		fmt.Fprintf(&b, "profile=1,0.%03d", i+101)
		for j := 0; j < 1200; j++ {
			b.WriteString(",0.5")
		}
		return b.String() // ~4.8KB, over the raw fast-path floor
	}
	const n = 8
	first := make([][]byte, n)
	for i := 0; i < n; i++ {
		status, body := s.MeasureQuery(mkQuery(i))
		if status != 200 {
			t.Fatalf("query %d: status %d", i, status)
		}
		first[i] = body
	}
	evalsWarm := s.MeasureEvals()
	waitSpill(t, "raw evictions to land", func() bool {
		_, ok := s.spillGet(spillLayerRaw, mkQuery(0))
		return ok
	})

	status, body := s.MeasureQuery(mkQuery(0))
	if status != 200 || !bytes.Equal(body, first[0]) {
		t.Fatalf("raw spill hit diverged (status %d)", status)
	}
	if got := s.MeasureEvals(); got != evalsWarm {
		t.Fatalf("raw spill hit ran %d new evaluations", got-evalsWarm)
	}
}

// bigBatchBody returns a /v1/batch JSON body over the raw body-front
// floor, with a distinguishing first profile per seed.
func bigBatchBody(t *testing.T, seed, profiles int) []byte {
	t.Helper()
	req := BatchRequest{Profiles: make([][]float64, profiles)}
	req.Profiles[0] = []float64{1, float64(seed+101) / 1000}
	for i := 1; i < profiles; i++ {
		req.Profiles[i] = []float64{1, 0.5, 0.25}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) < batchRawMinBody {
		t.Fatalf("test body %d bytes, below the %d front floor", len(body), batchRawMinBody)
	}
	return body
}

// TestSpillBatchBufferedRoundtrip: a buffered batch response evicted from
// the body-front cache must serve the identical bytes from disk, skipping
// decode and render entirely.
func TestSpillBatchBufferedRoundtrip(t *testing.T) {
	s, _ := newSpillServer(t, 128<<10)
	body1 := bigBatchBody(t, 1, 450)
	body2 := bigBatchBody(t, 2, 450)
	status, resp1, msg := s.BatchBody(body1)
	if status != 200 {
		t.Fatalf("first batch: %d %s", status, msg)
	}
	if status, _, msg = s.BatchBody(body2); status != 200 {
		t.Fatalf("second batch: %d %s", status, msg)
	}
	waitSpill(t, "batch front eviction to land", func() bool {
		_, ok := s.spillGet(spillLayerBatch, string(body1))
		return ok
	})
	hits := s.spillStats().Hits
	status, resp, msg := s.BatchBody(body1)
	if status != 200 {
		t.Fatalf("re-request: %d %s", status, msg)
	}
	if !bytes.Equal(resp, resp1) {
		t.Fatal("batch spill hit diverged from the rendered response")
	}
	if got := s.spillStats().Hits; got <= hits {
		t.Fatalf("batch re-request did not hit spill (hits %d -> %d)", hits, got)
	}
}

// TestSpillStreamedBatch: the streaming batch path must tee its response
// into the spill tier on the first pass and serve the second pass
// byte-identically straight from the segment reader; after on-disk
// corruption it must fall back to evaluation with the same bytes.
func TestSpillStreamedBatch(t *testing.T) {
	s, dir := newSpillServer(t, 128<<10)
	body := bigBatchBody(t, 3, 450)
	run := func() []byte {
		var buf bytes.Buffer
		status, msg, err := s.BatchBodyStream(context.Background(), &buf, body)
		if err != nil || status != 200 {
			t.Fatalf("stream: status %d msg %q err %v", status, msg, err)
		}
		return buf.Bytes()
	}

	firstPass := run() // renders and tees: Commit is synchronous
	if w := s.spillStats().Writes; w == 0 {
		t.Fatal("streamed render did not tee into spill")
	}
	hits := s.spillStats().Hits
	if got := run(); !bytes.Equal(got, firstPass) {
		t.Fatal("streamed spill hit diverged from the rendered response")
	}
	if got := s.spillStats().Hits; got <= hits {
		t.Fatalf("second stream did not hit spill (hits %d -> %d)", hits, got)
	}

	// Bit-flip every segment: the CRC pre-verification must turn the
	// stored entry into a miss (never a corrupt byte on the wire) and the
	// path must fall back to rendering the same response.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files to corrupt (err %v)", err)
	}
	for _, p := range segs {
		f, err := os.OpenFile(p, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		info, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		buf := []byte{0}
		off := info.Size() / 2
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		buf[0] ^= 0xff
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if got := run(); !bytes.Equal(got, firstPass) {
		t.Fatal("corrupted-spill fallback diverged from the rendered response")
	}
	if c := s.spillStats().Corrupt; c == 0 {
		t.Fatal("corruption was not detected by the CRC check")
	}
}

// TestStatzSpillBlock: /v1/statz must expose the spill tier, off and on.
func TestStatzSpillBlock(t *testing.T) {
	if stz := statzOf(t, NewServer()); stz.Spill.Enabled {
		t.Fatal("spill reported enabled on a plain server")
	}
	s, _ := newSpillServer(t, 700)
	for i := 0; i < 12; i++ {
		if status, _ := s.MeasureQuery(fmt.Sprintf("profile=1,0.5,0.%03d", i+101)); status != 200 {
			t.Fatalf("query %d failed", i)
		}
	}
	waitSpill(t, "statz writes", func() bool { return s.spillStats().Writes > 0 })
	stz := statzOf(t, s)
	if !stz.Spill.Enabled {
		t.Fatal("spill not reported enabled")
	}
	if stz.Spill.Writes == 0 || stz.Spill.Entries == 0 || stz.Spill.Bytes == 0 {
		t.Fatalf("spill statz block empty: %+v", stz.Spill)
	}
	if stz.Spill.MaxBytes == 0 || stz.Spill.MaxIndexBytes == 0 {
		t.Fatalf("spill budgets missing from statz: %+v", stz.Spill)
	}
}

// TestStatzShardGeometry: every cache layer must report its shard count so
// operators can see the geometry per layer.
func TestStatzShardGeometry(t *testing.T) {
	stz := statzOf(t, NewServer())
	if stz.MeasureCache.Shards < 1 {
		t.Fatalf("canonical shards = %d", stz.MeasureCache.Shards)
	}
	if stz.MeasureCache.RawShards < 1 {
		t.Fatalf("raw front shards = %d", stz.MeasureCache.RawShards)
	}
	if stz.Batch.RawShards < 1 {
		t.Fatalf("batch front shards = %d", stz.Batch.RawShards)
	}
	// An explicit shard count pins the gauge exactly.
	fixed := statzOf(t, NewServerWithCache(CacheConfig{Entries: 64, Shards: 4, Coalesce: true}))
	if fixed.MeasureCache.Shards != 4 || fixed.MeasureCache.RawShards != 4 || fixed.Batch.RawShards != 4 {
		t.Fatalf("fixed geometry: canonical %d raw %d batch %d, want 4 each",
			fixed.MeasureCache.Shards, fixed.MeasureCache.RawShards, fixed.Batch.RawShards)
	}
}

// TestPeerPutBodyCap: the unified MaxBody cap must reject oversized
// /internal/peer/put bodies with a structured 413 before any frame
// parsing, exactly like the public POST endpoints.
func TestPeerPutBodyCap(t *testing.T) {
	s := NewServer()
	s.MaxBody = 64
	w := httptest.NewRecorder()
	body := bytes.Repeat([]byte{'x'}, 200)
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, cluster.PeerPutPath, bytes.NewReader(body)))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", w.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("want structured error body, got %q (err %v)", w.Body.String(), err)
	}
	if !strings.Contains(e.Error, "64") {
		t.Fatalf("error %q does not name the cap", e.Error)
	}
	// A frame under the cap passes the cap (and fails later, on the
	// cluster-tier check) — the cap is not simply rejecting everything.
	w = httptest.NewRecorder()
	frame := append(append([]byte{cluster.LayerCanonical}, "k"...), '\n')
	frame = append(frame, "body"...)
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, cluster.PeerPutPath, bytes.NewReader(frame)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("under-cap frame: status %d, want 400 (no cluster tier)", w.Code)
	}
}
