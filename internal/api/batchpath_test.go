package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"hetero/internal/core"
	"hetero/internal/profile"
	"hetero/internal/stats"
)

// randomRhos draws one normalized n-computer profile at full float64
// precision (spellings round-trip exactly through both the batch JSON and
// the measure query string).
func randomRhos(n int, seed uint64) []float64 {
	rng := stats.NewRNG(seed)
	return []float64(profile.RandomNormalized(rng, n))
}

// measureQueryFor renders the /v1/measure query for one profile with
// round-trippable spellings.
func measureQueryFor(rhos []float64) string {
	var b strings.Builder
	b.Grow(9 + 26*len(rhos))
	b.WriteString("profile=")
	for i, rho := range rhos {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(rho, 'g', -1, 64))
	}
	return b.String()
}

// expectedBatchBody assembles the batch response a server would have to
// produce if /v1/batch is exactly "per-profile /v1/measure": each result is
// the measure body for that profile, spliced into the count+results frame.
// The measure side runs on its own fresh server so the two paths compute
// independently.
func expectedBatchBody(t *testing.T, rhoSets [][]float64) []byte {
	t.Helper()
	s := NewServer()
	var out []byte
	out = append(out, `{"count":`...)
	out = strconv.AppendInt(out, int64(len(rhoSets)), 10)
	out = append(out, `,"results":[`...)
	for i, rhos := range rhoSets {
		status, body := s.MeasureQuery(measureQueryFor(rhos))
		if status != 200 {
			t.Fatalf("measure for profile %d: status %d", i, status)
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, body[:len(body)-1]...)
	}
	return append(out, ']', '}', '\n')
}

func marshalBatch(t *testing.T, rhoSets [][]float64) []byte {
	t.Helper()
	body, err := json.Marshal(BatchRequest{Profiles: rhoSets})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestBatchBitIdenticalToMeasure is the golden equivalence contract of the
// batch engine: across every scheduling regime — across-profile fan-out,
// the within-profile chunked kernel (n ≥ core.ParallelCutover), dedupe
// collapse, canonical-cache consult, and the raw body-front repeat — the
// /v1/batch response must be byte-identical to splicing the per-profile
// /v1/measure bodies, computed on an independent server.
func TestBatchBitIdenticalToMeasure(t *testing.T) {
	small1 := randomRhos(5, 1)
	small2 := randomRhos(9, 2)
	cacheable := randomRhos(batchCacheMinProfile+10, 3) // consults the canonical cache
	large := randomRhos(core.ParallelCutover, 4)        // chunked two-pass kernel
	regimes := []struct {
		name string
		sets [][]float64
	}{
		{"many_small_fanout", [][]float64{small1, small2, randomRhos(3, 5)}},
		{"chunked_large", [][]float64{large}},
		{"mixed_sizes", [][]float64{small1, large, cacheable, small2}},
		{"dedup_collapse", [][]float64{small1, cacheable, small1, small1, cacheable}},
	}
	for _, regime := range regimes {
		t.Run(regime.name, func(t *testing.T) {
			s := NewServer()
			body := marshalBatch(t, regime.sets)
			status, resp, msg := s.BatchBody(body)
			if status != 200 {
				t.Fatalf("batch status %d: %s", status, msg)
			}
			want := expectedBatchBody(t, regime.sets)
			if !bytes.Equal(resp, want) {
				t.Fatalf("batch diverges from per-profile measure\nbatch   %.200q\nmeasure %.200q", resp, want)
			}
			// The repeat must serve the same bytes whether it resolves at the
			// raw body-front (large bodies) or recomputes (small ones).
			status2, resp2, _ := s.BatchBody(body)
			if status2 != 200 || !bytes.Equal(resp, resp2) {
				t.Fatalf("repeated body served different bytes (status %d)", status2)
			}
		})
	}
}

// TestBatchMatchesEncodingJSON pins the frame assembly itself: the
// hand-assembled batch body must equal json.Encoder on the BatchResponse
// struct the old engine marshaled, field for field and byte for byte.
func TestBatchMatchesEncodingJSON(t *testing.T) {
	sets := [][]float64{randomRhos(4, 7), randomRhos(6, 8)}
	s := NewServer()
	status, resp, msg := s.BatchBody(marshalBatch(t, sets))
	if status != 200 {
		t.Fatalf("status %d: %s", status, msg)
	}
	var decoded BatchResponse
	if err := json.Unmarshal(resp, &decoded); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, buf.Bytes()) {
		t.Fatalf("assembled body is not canonical encoding/json output:\nassembled %.200q\nencoded   %.200q", resp, buf.Bytes())
	}
	if decoded.Count != 2 || len(decoded.Results) != 2 {
		t.Fatalf("count %d / %d results", decoded.Count, len(decoded.Results))
	}
}

// TestBatchDedupeCounters drives a duplicate-heavy batch and checks the
// bookkeeping: duplicates counted, the canonical layer consulted for the
// cache-eligible profile across requests, the raw front for repeated
// bodies.
func TestBatchDedupeCounters(t *testing.T) {
	s := NewServer()
	cacheable := randomRhos(batchCacheMinProfile, 11)
	small := randomRhos(4, 12)
	body := marshalBatch(t, [][]float64{cacheable, small, cacheable, small, cacheable})
	if status, _, msg := s.BatchBody(body); status != 200 {
		t.Fatalf("status %d: %s", status, msg)
	}
	if got := s.batchDeduped.Load(); got != 3 {
		t.Fatalf("deduped = %d, want 3 (two extra cacheable + one extra small)", got)
	}
	// A different body sharing the cacheable profile: its fragment must come
	// from the canonical cache.
	body2 := marshalBatch(t, [][]float64{cacheable, randomRhos(5, 13)})
	if status, _, msg := s.BatchBody(body2); status != 200 {
		t.Fatalf("status %d: %s", status, msg)
	}
	if got := s.batchCanonHits.Load(); got == 0 {
		t.Fatal("cacheable profile not served from the canonical cache on the second request")
	}
	if len(body) >= batchRawMinBody {
		before := s.batchRawHits.Load()
		if status, _, _ := s.BatchBody(body); status != 200 {
			t.Fatal("repeat failed")
		}
		if s.batchRawHits.Load() != before+1 {
			t.Fatal("repeated large body did not hit the raw body-front cache")
		}
	}
	// Statz must surface all three counters.
	if stz := statzOf(t, s); stz.Batch.Deduped == 0 || stz.Batch.CacheHits == 0 {
		t.Fatalf("statz batch counters not folded: %+v", stz.Batch)
	}
}

func statzOf(t *testing.T, s *Server) StatzResponse {
	t.Helper()
	srv := newTestServerFrom(t, s)
	var stz StatzResponse
	if code := getJSON(t, srv+"/v1/statz", &stz); code != 200 {
		t.Fatalf("statz status %d", code)
	}
	return stz
}

// TestBatchBodyCap: the request-body byte cap must reject oversized bodies
// with a structured 413 before any JSON decoding, like the /v1/simulate/faulty
// cap, and leave ordinary bodies unaffected.
func TestBatchBodyCap(t *testing.T) {
	s := NewServer()
	s.MaxBody = 512
	srv := newTestServerFrom(t, s)
	huge := strings.NewReader(`{"profiles":[[` + strings.Repeat("1,", 400) + `1]]}`)
	resp, err := http.Post(srv+"/v1/batch", "application/json", huge)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Fatalf("413 body not a structured error: %v %v", e, err)
	}
	if code := postJSON(t, srv+"/v1/batch", BatchRequest{Profiles: [][]float64{{1, 0.5}}}, nil); code != 200 {
		t.Fatalf("small body rejected: status %d", code)
	}
}

// TestBatchErrorsNotCached: a malformed large body must fail identically on
// every attempt (nothing cached by the raw front), and a valid large body
// afterwards must succeed.
func TestBatchErrorsNotCached(t *testing.T) {
	s := NewServer()
	bad := []byte(`{"profiles":[[` + strings.Repeat("1,", batchRawMinBody/2) + `7]]}`) // ρ=7 > 1
	if len(bad) < batchRawMinBody {
		t.Fatal("bad body too short to engage the raw front")
	}
	for i := 0; i < 2; i++ {
		status, _, msg := s.BatchBody(bad)
		if status != 400 || !strings.Contains(msg, "exceeds 1") {
			t.Fatalf("attempt %d: status %d msg %q", i, status, msg)
		}
	}
	if s.batchRawCache.counters().size != 0 {
		t.Fatal("error response was cached in the raw body-front")
	}
}

// TestDedupeProfiles covers the grouping helper directly, including the
// hash-collision guard (equality check, not hash equality, decides).
func TestDedupeProfiles(t *testing.T) {
	a := profile.MustNew(1, 0.5)
	b := profile.MustNew(1, 0.25)
	uniq, canon, dups := dedupeProfiles([]profile.Profile{a, b, a, a})
	if len(uniq) != 2 || uniq[0] != 0 || uniq[1] != 1 {
		t.Fatalf("uniq = %v", uniq)
	}
	if dups != 2 {
		t.Fatalf("dups = %d, want 2", dups)
	}
	want := []int{0, 1, 0, 0}
	for i, c := range canon {
		if c != want[i] {
			t.Fatalf("canon = %v, want %v", canon, want)
		}
	}
	if hashProfileBits(a) == hashProfileBits(b) {
		t.Fatal("distinct profiles collide (suspicious hash)")
	}
	// Prefix profiles must not collide via length confusion.
	if hashProfileBits(profile.MustNew(1)) == hashProfileBits(profile.MustNew(1, 1)) {
		t.Fatal("length not mixed into the profile hash")
	}
}

// TestBatchDecodeHandParser pins the in-place profiles parser against
// encoding/json semantics: float spellings decode identically (both sides
// bottom out in strconv.ParseFloat), whitespace is insignificant, unknown
// keys are skipped, a duplicate "profiles" key restarts rather than
// appends, and every malformed shape is rejected with the right status.
func TestBatchDecodeHandParser(t *testing.T) {
	s := NewServer()
	// Exponent/sign spellings plus aggressive whitespace must serve the
	// exact bytes of the plainly-spelled equivalent batch.
	spelled := []byte("{ \"unknown\" : {\"nested\": [1, \"x\"]},\n\t\"profiles\" : [ [ 1e0 , 5E-1 ] ,\r\n [0.25, 2.5e-1, 5e-1] ] }")
	status, resp, msg := s.BatchBody(spelled)
	if status != 200 {
		t.Fatalf("spelled batch: status %d: %s", status, msg)
	}
	want := expectedBatchBody(t, [][]float64{{1, 0.5}, {0.25, 0.25, 0.5}})
	if !bytes.Equal(resp, want) {
		t.Fatalf("spelled batch diverges:\ngot  %.200q\nwant %.200q", resp, want)
	}
	// A duplicate "profiles" key takes the last value, like encoding/json.
	status, resp, msg = s.BatchBody([]byte(`{"profiles":[[1]],"profiles":[[0.5,0.5]]}`))
	if status != 200 {
		t.Fatalf("duplicate key: status %d: %s", status, msg)
	}
	if want := expectedBatchBody(t, [][]float64{{0.5, 0.5}}); !bytes.Equal(resp, want) {
		t.Fatalf("duplicate key did not take the last value: %.200q", resp)
	}
	bad := []struct {
		name, body, wantMsg string
		status              int
	}{
		{"profiles_null", `{"profiles":null}`, "profiles must be non-empty", 400},
		{"profiles_empty", `{"profiles":[ ]}`, "profiles must be non-empty", 400},
		{"profiles_object", `{"profiles":{"a":1}}`, "profiles must be an array of arrays", 400},
		{"element_scalar", `{"profiles":[1]}`, "profiles[0] must be an array of numbers", 400},
		{"element_null", `{"profiles":[[1],null]}`, "profiles[1] must be an array of numbers", 400},
		{"rho_string", `{"profiles":[["a"]]}`, "profiles[0]: ρ values must be numbers", 400},
		{"rho_bool", `{"profiles":[[1],[true]]}`, "profiles[1]: ρ values must be numbers", 400},
		{"rho_nested", `{"profiles":[[[1]]]}`, "profiles[0]: ρ values must be numbers", 400},
		{"rho_invalid", `{"profiles":[[-1]]}`, "profiles[0]: ", 400},
		{"trailing_garbage", "{\"profiles\":[[1]]} x", "invalid JSON", 400},
		{"not_an_object", `[[1]]`, "invalid JSON", 400},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			status, _, msg := s.BatchBody([]byte(tc.body))
			if status != tc.status {
				t.Fatalf("status %d (%s), want %d", status, msg, tc.status)
			}
			if !strings.Contains(msg, tc.wantMsg) {
				t.Fatalf("msg %q does not contain %q", msg, tc.wantMsg)
			}
		})
	}
}
