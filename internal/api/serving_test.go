package api

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hetero/internal/core"
	"hetero/internal/incr"
	"hetero/internal/model"
	"hetero/internal/profile"
)

func TestBatchMatchesMeasure(t *testing.T) {
	srv := testServer(t)
	req := BatchRequest{Profiles: [][]float64{
		{1, 0.5, 0.25},
		{1},
		{0.9, 0.8, 0.7, 0.6, 0.5},
	}}
	var out BatchResponse
	if code := postJSON(t, srv.URL+"/v1/batch", req, &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Count != 3 || len(out.Results) != 3 {
		t.Fatalf("count %d, %d results", out.Count, len(out.Results))
	}
	m := model.Table1()
	for i, rhos := range req.Profiles {
		p := profile.MustNew(rhos...)
		got := out.Results[i]
		if math.Abs(got.X-core.X(m, p)) > 1e-12*core.X(m, p) {
			t.Fatalf("results[%d].X = %v, want %v", i, got.X, core.X(m, p))
		}
		if math.Abs(got.HECR-core.HECR(m, p)) > 1e-12 {
			t.Fatalf("results[%d].HECR = %v, want %v", i, got.HECR, core.HECR(m, p))
		}
		if math.Abs(got.Mean-p.Mean()) > 1e-15 {
			t.Fatalf("results[%d].Mean = %v, want %v", i, got.Mean, p.Mean())
		}
	}
}

func TestBatchCustomParams(t *testing.T) {
	srv := testServer(t)
	m := model.Figs34()
	var out BatchResponse
	code := postJSON(t, srv.URL+"/v1/batch", BatchRequest{
		Profiles: [][]float64{{1, 0.5}},
		Params:   &m,
	}, &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	p := profile.MustNew(1, 0.5)
	if math.Abs(out.Results[0].X-core.X(m, p)) > 1e-12*core.X(m, p) {
		t.Fatalf("X = %v, want %v under Figs34 params", out.Results[0].X, core.X(m, p))
	}
}

func TestBatchRejectsBadInput(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name string
		body interface{}
		code int
	}{
		{"empty", BatchRequest{}, 400},
		{"bad rho", BatchRequest{Profiles: [][]float64{{1, -0.5}}}, 400},
		{"bad params", BatchRequest{Profiles: [][]float64{{1}}, Params: &model.Params{Tau: -1, Pi: 0, Delta: 1}}, 400},
	}
	for _, tc := range cases {
		if code := postJSON(t, srv.URL+"/v1/batch", tc.body, nil); code != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.name, code, tc.code)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
}

func TestBatchRejectsOversized(t *testing.T) {
	srv := testServer(t)
	req := BatchRequest{Profiles: make([][]float64, MaxBatchProfiles+1)}
	for i := range req.Profiles {
		req.Profiles[i] = []float64{1}
	}
	if code := postJSON(t, srv.URL+"/v1/batch", req, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", code)
	}
}

func TestBatchAgreesWithIncr(t *testing.T) {
	// The endpoint must serve exactly what the library's batch path yields.
	srv := testServer(t)
	profiles := [][]float64{{1, 0.5, 0.25, 0.125}, {0.3, 0.2}}
	var out BatchResponse
	if code := postJSON(t, srv.URL+"/v1/batch", BatchRequest{Profiles: profiles}, &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	ps := []profile.Profile{profile.MustNew(profiles[0]...), profile.MustNew(profiles[1]...)}
	want := incr.BatchMeasure(model.Table1(), ps, 1)
	for i := range ps {
		if out.Results[i].X != want[i].X || out.Results[i].HECR != want[i].HECR || out.Results[i].WorkRate != want[i].WorkRate {
			t.Fatalf("results[%d] = %+v diverges from incr %+v", i, out.Results[i], want[i])
		}
	}
}

func newTestServerFrom(t *testing.T, s *Server) string {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestMeasureCacheHitIsByteIdentical(t *testing.T) {
	srv := testServer(t)
	url := srv.URL + "/v1/measure?profile=1,0.5,0.25"
	code1, miss := getBody(t, url)
	code2, hit := getBody(t, url)
	if code1 != 200 || code2 != 200 {
		t.Fatalf("statuses %d, %d", code1, code2)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatalf("cache hit differs from miss:\nmiss %q\nhit  %q", miss, hit)
	}
	// Different spellings of the same floats share one cache entry.
	code3, respelled := getBody(t, srv.URL+"/v1/measure?profile=1.0,5e-1,0.250")
	if code3 != 200 || !bytes.Equal(miss, respelled) {
		t.Fatalf("respelled floats served different bytes")
	}
	var statz StatzResponse
	if code := getJSON(t, srv.URL+"/v1/statz", &statz); code != 200 {
		t.Fatalf("statz status %d", code)
	}
	if statz.MeasureCache.Hits < 2 || statz.MeasureCache.Misses < 1 {
		t.Fatalf("counters %+v, want ≥2 hits and ≥1 miss", statz.MeasureCache)
	}
	if statz.MeasureCache.Size < 1 || statz.MeasureCache.Capacity != DefaultMeasureCacheSize {
		t.Fatalf("occupancy %+v", statz.MeasureCache)
	}
}

func TestMeasureCacheDistinguishesParams(t *testing.T) {
	srv := testServer(t)
	_, def := getBody(t, srv.URL+"/v1/measure?profile=1,0.5")
	_, fine := getBody(t, srv.URL+"/v1/measure?profile=1,0.5&tau=1e-5&pi=10e-5")
	if bytes.Equal(def, fine) {
		t.Fatal("different params served the same cached body")
	}
}

func TestStatzTracksBatch(t *testing.T) {
	srv := testServer(t)
	for i := 0; i < 3; i++ {
		if code := postJSON(t, srv.URL+"/v1/batch", BatchRequest{Profiles: [][]float64{{1}, {0.5}}}, nil); code != 200 {
			t.Fatalf("batch status %d", code)
		}
	}
	var statz StatzResponse
	if code := getJSON(t, srv.URL+"/v1/statz", &statz); code != 200 {
		t.Fatalf("status %d", code)
	}
	if statz.Batch.Requests != 3 || statz.Batch.Profiles != 6 {
		t.Fatalf("batch counters %+v, want 3 requests / 6 profiles", statz.Batch)
	}
	resp, err := http.Post(srv.URL+"/v1/statz", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST statz status %d", resp.StatusCode)
	}
}

func TestMeasureCacheEviction(t *testing.T) {
	// A capacity-2 server must evict the least recently used entry and keep
	// serving correct results for evicted keys (as fresh misses).
	s := NewServerCacheSize(2)
	srv := newTestServerFrom(t, s)
	urls := []string{
		srv + "/v1/measure?profile=1",
		srv + "/v1/measure?profile=1,0.5",
		srv + "/v1/measure?profile=1,0.5,0.25",
	}
	for _, u := range urls {
		if code, _ := getBody(t, u); code != 200 {
			t.Fatalf("status %d for %s", code, u)
		}
	}
	hits, misses, size, capacity := s.cache.Stats()
	if capacity != 2 || size != 2 {
		t.Fatalf("size %d / capacity %d, want 2/2", size, capacity)
	}
	if hits != 0 || misses != 3 {
		t.Fatalf("hits %d misses %d, want 0/3", hits, misses)
	}
	// The first URL was evicted; re-fetching must miss yet still be correct.
	code, body := getBody(t, urls[0])
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(string(body), `"x"`) {
		t.Fatalf("evicted re-fetch body %q", body)
	}
	if h, m, _, _ := s.cache.Stats(); h != 0 || m != 4 {
		t.Fatalf("hits %d misses %d after evicted re-fetch, want 0/4", h, m)
	}
}

func TestCacheDisabled(t *testing.T) {
	s := NewServerCacheSize(0)
	srv := newTestServerFrom(t, s)
	for i := 0; i < 2; i++ {
		if code, _ := getBody(t, srv+"/v1/measure?profile=1,0.5"); code != 200 {
			t.Fatalf("status %d", code)
		}
	}
	if hits, _, size, _ := s.cache.Stats(); hits != 0 || size != 0 {
		t.Fatalf("disabled cache recorded hits=%d size=%d", hits, size)
	}
}

func TestResponseCacheConcurrency(t *testing.T) {
	// Hammer one cache from many goroutines; the race detector (tier-1 runs
	// this package under -race) does the real checking.
	c := newCache(cacheOptions{entries: 8, maxBytes: DefaultCacheBytes, coalesce: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				if _, ok := c.Get(key); !ok {
					c.Put(key, []byte(key))
				}
			}
		}(g)
	}
	wg.Wait()
	if _, _, size, _ := c.Stats(); size > 8 {
		t.Fatalf("cache overflowed its bound: size %d", size)
	}
}
