package api

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// reopenSpill serves req once on a write-through server over dir, closes
// it (drain plus shutdown flush) and returns the served bytes and a fresh
// server with an empty memory tier on the same directory.
func reopenSpill(t *testing.T, dir string, req func(*Server) []byte) ([]byte, *Server) {
	t.Helper()
	s1 := newWriteThroughServer(t, dir)
	want := req(s1)
	s1.CloseSpill()
	s2 := newWriteThroughServer(t, dir)
	t.Cleanup(s2.CloseSpill)
	return want, s2
}

// TestTierSpillReadPath: in every tier, an entry only spill holds is read
// from disk once per herd — the fill's leader reads it, the herd shares
// it — and later requests are served from memory, all byte-identical and
// without an evaluation.
func TestTierSpillReadPath(t *testing.T) {
	batchBody := bigBatchBody(t, 11, 4000)
	cases := []struct {
		name string
		tier func(*Server) *tier
		req  func(*Server) []byte
	}{
		{"canonical", func(s *Server) *tier { return &s.canon }, func(s *Server) []byte {
			_, body := s.MeasureQuery("profile=1,0.5,0.125")
			return body
		}},
		{"raw_front", func(s *Server) *tier { return &s.rawFront }, func(s *Server) []byte {
			_, body := s.MeasureQuery(largeTestQuery(1024, 12))
			return body
		}},
		{"batch_front", func(s *Server) *tier { return &s.batchFront }, func(s *Server) []byte {
			_, body, _ := s.BatchBody(batchBody)
			return body
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, s := reopenSpill(t, t.TempDir(), c.req)
			if len(want) == 0 {
				t.Fatal("populating request failed")
			}
			const herd = 16
			got := make([][]byte, herd)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					got[g] = c.req(s)
				}(g)
			}
			close(start)
			wg.Wait()
			for g, b := range got {
				if !bytes.Equal(b, want) {
					t.Fatalf("herd member %d got different bytes", g)
				}
			}
			if hits := s.spillStats().Hits; hits != 1 {
				t.Fatalf("spill hits = %d after the herd, want 1", hits)
			}
			memHits := c.tier(s).mem.counters().hits
			if b := c.req(s); !bytes.Equal(b, want) {
				t.Fatal("memory-served repeat got different bytes")
			}
			if hits := s.spillStats().Hits; hits != 1 {
				t.Fatalf("spill hits = %d after the repeat, want 1 (promoted)", hits)
			}
			if got := c.tier(s).mem.counters().hits; got != memHits+1 {
				t.Fatalf("memory hits %d -> %d, want one more", memHits, got)
			}
			if evals := s.MeasureEvals(); evals != 0 {
				t.Fatalf("%d evaluations, want 0", evals)
			}
		})
	}
}

// TestBatchFragmentFromSpill: a batch profile large enough for the
// canonical tier, held only in spill's canonical layer, is served from
// disk inside a /v1/batch response that stays byte-identical.
func TestBatchFragmentFromSpill(t *testing.T) {
	large := randomRhos(batchCacheMinProfile+2, 13)
	sets := [][]float64{randomRhos(6, 14), large}
	q := measureQueryFor(large)
	if len(q) >= rawFastPathMinQuery {
		t.Fatalf("query %d bytes engages the raw front; the profile must reach the canonical layer only", len(q))
	}
	_, s := reopenSpill(t, t.TempDir(), func(s *Server) []byte {
		_, body := s.MeasureQuery(q)
		return body
	})
	body := marshalBatch(t, sets)
	if len(body) >= batchRawMinBody {
		t.Fatalf("batch body %d bytes engages the body-front", len(body))
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
	if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), expectedBatchBody(t, sets)) {
		t.Fatalf("batch status %d, body diverges from spliced per-profile measure", rec.Code)
	}
	if hits := s.spillStats().Hits; hits != 1 {
		t.Fatalf("spill hits = %d, want 1 (the large profile's fragment)", hits)
	}
	if s.batchCanonHits.Load() != 0 {
		t.Fatal("fragment reported as a memory hit; memory started empty")
	}
}
