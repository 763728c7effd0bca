package api

import (
	"bytes"
	"strings"
	"testing"
)

// largePairQuery builds a /v1/compare query (p1, p2) big enough to clear the
// raw front gate, with round-trippable float spellings.
func largePairQuery(n int, seed1, seed2 uint64) string {
	q := "p1=" + largeTestQuery(n, seed1)[len("profile="):] +
		"&p2=" + largeTestQuery(n, seed2)[len("profile="):]
	return q
}

// TestCompareRawFrontCacheHit: a repeated large /v1/compare query must be
// served from the raw front byte-identically, and the hit must show up in
// the shared raw cache's counters (which statz folds into RawHits).
func TestCompareRawFrontCacheHit(t *testing.T) {
	s := NewServer()
	srv := newTestServerFrom(t, s)
	q := largePairQuery(512, 21, 22)
	if len(q) < rawFastPathMinQuery {
		t.Fatalf("query too small (%d bytes) to engage the raw front", len(q))
	}
	url := srv + "/v1/compare?" + q
	code1, miss := getBody(t, url)
	hitsBefore := s.rawFront.mem.counters().hits
	code2, hit := getBody(t, url)
	if code1 != 200 || code2 != 200 {
		t.Fatalf("statuses %d / %d", code1, code2)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatal("raw-front hit served different bytes than the miss")
	}
	if s.rawFront.mem.counters().hits != hitsBefore+1 {
		t.Fatal("second request did not hit the raw front cache")
	}
}

// TestSpeedupRawFrontCacheHit is the same contract for /v1/speedup.
func TestSpeedupRawFrontCacheHit(t *testing.T) {
	s := NewServer()
	srv := newTestServerFrom(t, s)
	// φ must lie below the fastest (smallest) ρ; RandomNormalized floors ρ at
	// ~1e-3, so 1e-4 is always admissible.
	q := largeTestQuery(512, 23) + "&phi=0.0001"
	if len(q) < rawFastPathMinQuery {
		t.Fatalf("query too small (%d bytes) to engage the raw front", len(q))
	}
	url := srv + "/v1/speedup?" + q
	code1, miss := getBody(t, url)
	code2, hit := getBody(t, url)
	if code1 != 200 || code2 != 200 {
		t.Fatalf("statuses %d / %d", code1, code2)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatal("raw-front hit served different bytes than the miss")
	}
	if s.rawFront.mem.counters().hits == 0 {
		t.Fatal("second request did not hit the raw front cache")
	}
}

// TestRawFrontPrefixNamespacing: one RawQuery string carrying the parameters
// of BOTH endpoints, sent to /v1/compare and /v1/speedup in turn, must cache
// under distinct keys — the per-endpoint prefixes keep a compare body from
// ever being served for a speedup request (or vice versa), even though the
// query strings are identical.
func TestRawFrontPrefixNamespacing(t *testing.T) {
	s := NewServer()
	srv := newTestServerFrom(t, s)
	q := largePairQuery(512, 24, 25) + "&profile=" +
		largeTestQuery(512, 26)[len("profile="):] + "&phi=0.0001"
	codeC1, compare1 := getBody(t, srv+"/v1/compare?"+q)
	codeS1, speedup1 := getBody(t, srv+"/v1/speedup?"+q)
	codeC2, compare2 := getBody(t, srv+"/v1/compare?"+q)
	codeS2, speedup2 := getBody(t, srv+"/v1/speedup?"+q)
	if codeC1 != 200 || codeS1 != 200 || codeC2 != 200 || codeS2 != 200 {
		t.Fatalf("statuses %d/%d/%d/%d", codeC1, codeS1, codeC2, codeS2)
	}
	if !bytes.Equal(compare1, compare2) || !bytes.Equal(speedup1, speedup2) {
		t.Fatal("cached repeats diverged from their misses")
	}
	if bytes.Equal(compare1, speedup1) {
		t.Fatal("compare and speedup served the same body for one query (prefix collision)")
	}
	if !bytes.Contains(compare1, []byte(`"winner"`)) || !bytes.Contains(speedup1, []byte(`"mode"`)) {
		t.Fatalf("responses lost their shapes:\ncompare %.120q\nspeedup %.120q", compare1, speedup1)
	}
}

// TestCompareSpeedupErrorsNotCached: large erroneous queries must fail
// identically on every attempt and leave nothing in the raw cache.
func TestCompareSpeedupErrorsNotCached(t *testing.T) {
	s := NewServer()
	srv := newTestServerFrom(t, s)
	pad := strings.Repeat("0.001,", rawFastPathMinQuery/6)
	badCompare := "/v1/compare?p1=" + pad + "nope&p2=1"
	badSpeedup := "/v1/speedup?profile=" + pad + "1&phi=bogus"
	for i := 0; i < 2; i++ {
		if code, _ := getBody(t, srv+badCompare); code != 400 {
			t.Fatalf("compare attempt %d: status %d, want 400", i, code)
		}
		if code, _ := getBody(t, srv+badSpeedup); code != 400 {
			t.Fatalf("speedup attempt %d: status %d, want 400", i, code)
		}
	}
	if size := s.rawFront.mem.counters().size; size != 0 {
		t.Fatalf("%d error responses cached in the raw front", size)
	}
}

// TestCompareSmallQueryUnaffected: small queries bypass the front layer
// entirely and keep the historical behavior.
func TestCompareSmallQueryUnaffected(t *testing.T) {
	s := NewServer()
	srv := newTestServerFrom(t, s)
	code, body := getBody(t, srv+"/v1/compare?p1=1,0.5&p2=1,1")
	if code != 200 || !bytes.Contains(body, []byte(`"winner"`)) {
		t.Fatalf("status %d body %.120q", code, body)
	}
	if ct := s.rawFront.mem.counters(); ct.size != 0 || ct.hits != 0 {
		t.Fatalf("small query touched the raw front: %+v", ct)
	}
}
