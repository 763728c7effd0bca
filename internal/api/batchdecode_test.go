package api

import (
	"bytes"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hetero/internal/incr"
	"hetero/internal/model"
	"hetero/internal/profile"
)

// jsonNumber is RFC 8259's number grammar, the reference for what scanRho
// must accept.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// checkScanRho holds scanRho to strconv.ParseFloat on one whole token: a
// JSON number converts bit for bit (and is rejected exactly when ParseFloat
// rejects it), anything else is never accepted as a whole token.
func checkScanRho(t *testing.T, tok string) {
	t.Helper()
	v, end, _, ok := scanRho(tok, 0)
	whole := ok && end == len(tok)
	if !jsonNumber.MatchString(tok) {
		if whole {
			t.Fatalf("scanRho accepted non-JSON token %q", tok)
		}
		return
	}
	want, err := strconv.ParseFloat(tok, 64)
	if whole != (err == nil) {
		t.Fatalf("%q: scanRho ok=%v end=%d, ParseFloat err=%v", tok, ok, end, err)
	}
	if whole && math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("%q: scanRho %v (%#x), ParseFloat %v (%#x)", tok, v, math.Float64bits(v), want, math.Float64bits(want))
	}
}

// checkCanonicalToken holds the echo-copy rule: a token scanRho calls
// canonical is exactly what appendJSONFloat prints for its value.
func checkCanonicalToken(t *testing.T, tok string) {
	t.Helper()
	v, end, canon, ok := scanRho(tok, 0)
	if !ok || end != len(tok) || !canon {
		return
	}
	f, err := strconv.ParseFloat(tok, 64)
	if err != nil || math.Float64bits(f) != math.Float64bits(v) {
		t.Fatalf("canonical %q: scanRho %v, ParseFloat %v (%v)", tok, v, f, err)
	}
	if got := string(appendJSONFloat(nil, f)); got != tok {
		t.Fatalf("canonical %q renders back as %q", tok, got)
	}
}

var rhoTokenSeeds = []string{
	"1", "0.5", "0.50", "5e-1", "1.0", "1e0", "-0", "0", "-0.0", "01", ".5", "1.",
	"0x1p-1", "Infinity", "NaN", "+1", "1e", "1e+", "-", "",
	"0.000001", "0.0000001", "0.00001", "0.123456789012345", "0.1234567890123456",
	"0.30000000000000004", "0.1000000000000000055511151231257827",
	"9007199254740993", "9007199254740992", "18446744073709551616", "1e22", "1e23",
	"4.9e-324", "2.2250738585072014e-308", "1e-400", "1e400", "-1e400", "1E+2", "123456789e-30",
}

// FuzzParseRho: the fused converter matches strconv.ParseFloat bit for bit
// on every JSON number and accepts nothing else.
func FuzzParseRho(f *testing.F) {
	for _, s := range rhoTokenSeeds {
		f.Add(s)
	}
	f.Fuzz(checkScanRho)
}

// FuzzCanonicalRhoToken: every token the canonical check accepts renders
// back to itself, so copying it into the echo is byte-identical to
// formatting the parsed value.
func FuzzCanonicalRhoToken(f *testing.F) {
	for _, s := range rhoTokenSeeds {
		f.Add(s)
	}
	f.Fuzz(checkCanonicalToken)
}

// TestScanRhoRandomTokens runs both token properties over random tokens of
// the shapes clients send: k/10^d decimals, shortest and 17-digit float
// spellings, exponent forms, and canonical-looking decimals near the 15-digit
// and 1e-6 edges of the rule. The canonical shapes must also be recognised:
// the copy only pays off if ordinary spellings qualify.
func TestScanRhoRandomTokens(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for i := 0; i < n; i++ {
		f := rng.Float64()
		var tok string
		switch i % 6 {
		case 0: // k/100000, shortest: always canonical
			tok = strconv.FormatFloat(float64(1+rng.IntN(100000))/100000, 'f', -1, 64)
			if _, _, canon, _ := scanRho(tok, 0); !canon {
				t.Fatalf("five-decimal %q not recognised as canonical", tok)
			}
		case 1:
			tok = strconv.FormatFloat(f, 'g', -1, 64)
		case 2:
			tok = strconv.FormatFloat(f, 'f', 17, 64)
		case 3:
			tok = strconv.FormatFloat(f*math.Pow(10, float64(rng.IntN(60)-30)), 'e', rng.IntN(20)-1, 64)
		case 4: // "0." + up to 20 digits with up to 7 leading zeros
			var b strings.Builder
			b.WriteString("0.")
			b.WriteString(strings.Repeat("0", rng.IntN(8)))
			for d := rng.IntN(18); d >= 0; d-- {
				b.WriteByte(byte('0' + rng.IntN(10)))
			}
			tok = b.String()
		case 5:
			tok = strconv.FormatUint(rng.Uint64()>>rng.IntN(64), 10)
			if rng.IntN(2) == 0 {
				tok += "." + strconv.Itoa(rng.IntN(1000))
			}
		}
		checkScanRho(t, tok)
		checkCanonicalToken(t, tok)
	}
}

// FuzzBatchDecodeEquivalence: decodeBatchRequest (the one-pass scanner with
// its fallback) and the json.Unmarshal reference agree on status, message,
// every ρ's bits and the params for any body; whatever the scanner accepts
// the reference accepts identically, and every echo it records is the
// formatter's output for that profile.
func FuzzBatchDecodeEquivalence(f *testing.F) {
	for _, seed := range []string{
		`{"profiles":[[1,0.5],[0.25]]}`,
		`{"profiles":[[1,0.5]],"params":{"tau":1e-6,"pi":1e-5,"delta":1}}`,
		`{"params":{"tau":1e-6,"pi":1e-5,"delta":1},"profiles":[[1,0.5]]}`,
		"{ \"profiles\" : [ [ 1 , 0.5 ] ,\n\t[0.25\r] ] }",
		`{"profiles":[[1]],"profiles":[[0.5]]}`,
		`{"profiles":[[1]],"params":{"tau":1,"pi":1,"delta":1},"params":{"tau":2}}`,
		`{"PROFILES":[[1]]}`,
		`{profiles:[[1]]}`,
		`{"profiles":[[1]]}`,
		`{"profiles":[[1]],"extra":0}`,
		`{"profiles":[[-0]]}`,
		`{"profiles":[[01]]}`,
		`{"profiles":[[.5]]}`,
		`{"profiles":[[1.]]}`,
		`{"profiles":[[1e0,5E-1]]}`,
		`{"profiles":[[0x1p-1]]}`,
		`{"profiles":[[Infinity]]}`,
		`{"profiles":[[2]] }x`,
		`{"profiles":[[0.5x]]}`,
		`{"profiles":[[1e999]]}`,
		`{"profiles":[[1e-999]]}`,
		`{"profiles":[]}`,
		`{"profiles":[[]]}`,
		`{"profiles":null}`,
		`{"profiles":[[1]],"params":null}`,
		`{"profiles":[[1]],"params":{"tau":"x","pi":1,"delta":1}}`,
		`{"profiles":[[1]],"params":{"tau":-1,"pi":1,"delta":1}}`,
		`{"profiles":[[1]],"params":{"tau":1,"pi":1}}`,
		`{"profiles":[[1]],"params":{"tau":1,"pi":1,"delta":1,"s":"}\"{"}}`,
		`{"profiles":[[1]],"params":{"tau":1,"pi":1,"delta":1]}`,
		`{}`, `[]`, ``, `{"profiles":[[1]]`, `{"profiles":[[1],]}`, `{"profiles":[[1,]]}`,
	} {
		f.Add([]byte(seed))
	}
	s := NewServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		ref, rstatus, rmsg := s.decodeBatchReference(body)
		got, status, msg := s.decodeBatchRequest(body)
		if status != rstatus || msg != rmsg {
			t.Fatalf("decode %d %q, reference %d %q", status, msg, rstatus, rmsg)
		}
		if status != 0 {
			return
		}
		if got.m != ref.m {
			t.Fatalf("params %+v, reference %+v", got.m, ref.m)
		}
		if len(got.profiles) != len(ref.profiles) {
			t.Fatalf("%d profiles, reference %d", len(got.profiles), len(ref.profiles))
		}
		for i := range got.profiles {
			if !floatsEqual(got.profiles[i], ref.profiles[i]) {
				t.Fatalf("profile %d: %v, reference %v", i, got.profiles[i], ref.profiles[i])
			}
			if e := got.echoes[i]; e != nil {
				want := appendProfileEcho(nil, got.profiles[i])
				if want = want[len(`{"profile":[`) : len(want)-1]; !bytes.Equal(e, want) {
					t.Fatalf("profile %d echo %q, formatter %q", i, e, want)
				}
			}
		}
	})
}

// referenceBatchBody renders a batch response from first principles: every
// spelled ρ through strconv.ParseFloat, every profile through
// incr.MeasureProfile and the formatting reference appendMeasureResponse,
// spliced into the count+results frame.
func referenceBatchBody(t *testing.T, m model.Params, spelled [][]string) []byte {
	t.Helper()
	out := []byte(`{"count":` + strconv.Itoa(len(spelled)) + `,"results":[`)
	for i, toks := range spelled {
		rhos := make([]float64, len(toks))
		for j, tok := range toks {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				t.Fatal(err)
			}
			rhos[j] = v
		}
		frag := appendMeasureResponse(nil, rhos, incr.MeasureProfile(m, profile.MustNew(rhos...), 1))
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, frag[:len(frag)-1]...)
	}
	return append(out, "]}\n"...)
}

// batchBodyOf spells a batch request from its ρ tokens, joining each
// profile's tokens with sep.
func batchBodyOf(spelled [][]string, sep string) []byte {
	var b bytes.Buffer
	b.WriteString(`{"profiles":[`)
	for i, toks := range spelled {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("[" + strings.Join(toks, sep) + "]")
	}
	b.WriteString("]}")
	return b.Bytes()
}

// mixedSpellings builds profiles over every spelling class the echo copy
// must get right: canonical tokens (copied), respellings of the same values
// (formatted), 1e-6 and below, 16- and 17-digit values (formatted even when
// they look canonical), and whitespace. The last three profiles are long
// enough to go through the canonical cache.
func mixedSpellings() [][]string {
	rng := rand.New(rand.NewPCG(3, 4))
	base := []string{"0.5", "0.50", "5e-1", "1", "1.0", "0.000001", "0.0000001",
		"0.1234567890123456", "0.30000000000000004", " 0.25", "0.125 "}
	sets := [][]string{
		{"1", "0.5", "0.25"},   // canonical: copied
		{"1", "0.50", "0.25"},  // same values, one respelled
		{"5e-1", "1.0", "1e0"}, // exponent and trailing-zero forms
		{"1", "0.000001"},      // the 1e-6 edge of 'f' formatting
		{"1", "0.0000001"},     // below it: 'e' formatting
		{"0.1234567890123456", "1"},
		{"0.30000000000000004", "1"},
		{" 1", "0.5 ", "\n0.25"},
		base,
	}
	wide := func(n int, tok func(j int) string) []string {
		toks := make([]string, n)
		for j := range toks {
			toks[j] = tok(j)
		}
		return toks
	}
	fiveDec := func(int) string {
		return strconv.FormatFloat(float64(1+rng.IntN(100000))/100000, 'f', -1, 64)
	}
	return append(sets,
		wide(batchCacheMinProfile+40, fiveDec),
		wide(batchCacheMinProfile+40, func(int) string { return strconv.FormatFloat(rng.Float64()/2+0.5, 'g', -1, 64) }),
		wide(batchCacheMinProfile+40, func(j int) string { return base[j%len(base)] }),
	)
}

// TestBatchEchoGoldenSpellings: a batch of mixed spellings renders
// byte-identically on the buffered, streamed, canonical-cache-hit and
// HTTP paths, and every one matches the appendMeasureResponse formatting
// reference — not merely spliced /v1/measure, which shares the copy.
func TestBatchEchoGoldenSpellings(t *testing.T) {
	spelled := mixedSpellings()
	m := NewServer().Defaults
	want := referenceBatchBody(t, m, spelled)
	body := batchBodyOf(spelled, ",")

	// The one-pass scanner decodes this body (no fallback) and records an
	// echo for exactly the canonically spelled, whitespace-free profiles.
	req, ok := NewServer().scanBatchRequest(body)
	if !ok {
		t.Fatal("scanner declined a plain batch body")
	}
	for i, toks := range spelled {
		canon := true
		for _, tok := range toks {
			v, err := strconv.ParseFloat(tok, 64)
			canon = canon && err == nil && string(appendJSONFloat(nil, v)) == tok && len(tok) < 18
		}
		if (req.echoes[i] != nil) != canon {
			t.Errorf("profile %d %.40q: echo recorded = %v, want %v", i, toks, req.echoes[i] != nil, canon)
		}
	}

	buffered := NewServer()
	if status, got, msg := buffered.BatchBody(body); status != 200 || !bytes.Equal(got, want) {
		t.Fatalf("buffered: status %d %s\ngot  %.300q\nwant %.300q", status, msg, got, want)
	}
	// A respelled body misses the raw body-front but hits every canonical
	// cache entry the first request filled.
	hits := buffered.batchCanonHits.Load()
	if status, got, _ := buffered.BatchBody(batchBodyOf(spelled, " ,")); status != 200 || !bytes.Equal(got, want) {
		t.Fatalf("canonical-cache hit path diverges:\ngot  %.300q", got)
	}
	if buffered.batchCanonHits.Load()-hits != 3 {
		t.Fatalf("respelled batch made %d canonical hits, want 3", buffered.batchCanonHits.Load()-hits)
	}

	for _, name := range []string{"cold", "warm"} {
		streaming := NewServer()
		if name == "warm" {
			streaming = buffered
		}
		got, err := streamOf(t, streaming, body)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("streamed (%s): err %v\ngot  %.300q", name, err, got)
		}
	}
	// Cache off: every fragment renders into the stream's scratch buffer.
	if got, err := streamOf(t, NewServerCacheSize(0), body); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("streamed (cache off): err %v\ngot  %.300q", err, got)
	}

	// Over HTTP, buffered and forced-streaming.
	for _, threshold := range []int{0, 1} {
		s := NewServer()
		s.streamThreshold = threshold
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("HTTP (threshold %d): status %d\ngot  %.300q", threshold, rec.Code, rec.Body.Bytes())
		}
	}
}

// TestMeasureEchoGoldenSpellings: /v1/measure copies a canonical profile
// value into its echo and formats every other spelling, inline and through
// the admission batcher, and both match the formatting reference.
func TestMeasureEchoGoldenSpellings(t *testing.T) {
	m := NewServer().Defaults
	inline := NewServer()
	coalesced := NewServer()
	coalesced.EnableCoalesce(CoalesceConfig{MaxBatch: 8, MaxWait: time.Millisecond})
	defer coalesced.CloseCoalesce()
	for _, toks := range mixedSpellings() {
		ref := referenceBatchBody(t, m, [][]string{toks})
		want := append(ref[len(`{"count":1,"results":[`):len(ref)-len("]}\n")], '\n')
		query := "profile=" + strings.Join(toks, ",")
		if status, got := inline.MeasureQuery(query); status != 200 || !bytes.Equal(got, want) {
			t.Fatalf("inline %.60q: status %d\ngot  %.300q\nwant %.300q", query, status, got, want)
		}
		// Concurrent submissions of one query coalesce into one flush group.
		var wg sync.WaitGroup
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if status, got := coalesced.MeasureQuery(query); status != 200 || !bytes.Equal(got, want) {
					t.Errorf("coalesced %.60q: status %d\ngot  %.300q", query, status, got)
				}
			}()
		}
		wg.Wait()
	}
}

// TestBatchCacheDoesNotAliasBody: an echo is a view of the request body, so
// everything a cache retains must be a copy. Overwriting the body buffer
// after serving must leave raw body-front and canonical hits intact.
func TestBatchCacheDoesNotAliasBody(t *testing.T) {
	spelled := mixedSpellings()
	s := NewServer()
	body := batchBodyOf(spelled, ",")
	if len(body) < batchRawMinBody {
		t.Fatalf("body of %d bytes does not reach the raw body-front", len(body))
	}
	pristine := append([]byte(nil), body...)
	status, first, _ := s.BatchBody(body)
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	want := append([]byte(nil), first...)
	for i := range body {
		body[i] = '9'
	}
	if status, got, _ := s.BatchBody(pristine); status != 200 || !bytes.Equal(got, want) {
		t.Fatalf("raw body-front hit changed after the body was overwritten:\n%.300q", got)
	}
	hits := s.batchCanonHits.Load()
	if status, got, _ := s.BatchBody(batchBodyOf(spelled, " ,")); status != 200 || !bytes.Equal(got, want) {
		t.Fatalf("canonical hit changed after the body was overwritten:\n%.300q", got)
	}
	if s.batchCanonHits.Load() == hits {
		t.Fatal("respelled batch made no canonical hits")
	}
}

// TestReadPostBodyDeclaredLength: the Content-Length hint only sizes the
// buffer. A body longer than declared is still read whole, and still capped.
func TestReadPostBodyDeclaredLength(t *testing.T) {
	body := []byte(`{"profiles":[[1,0.5],[0.25]]}`)
	_, want, _ := NewServer().BatchBody(body)
	for _, declared := range []int64{-1, 0, 5, int64(len(body)), 1 << 30} {
		s := NewServer()
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("declared %d: status %d %q", declared, rec.Code, rec.Body.Bytes())
		}
	}
	s := NewServer()
	s.MaxBody = 256
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(bytes.Repeat([]byte(" "), 300)))
	req.ContentLength = 10
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "256") {
		t.Fatalf("under-declared oversized body: status %d %q", rec.Code, rec.Body.String())
	}
}

// BenchmarkBatchDecodeRender reports the per-ρ cost of the two batch stages
// this package owns around the kernel: decoding a body (decode) and
// rendering the measure bodies of its profiles from precomputed measures
// (render). Spellings are 5-decimal (k/100000, the canonical form the echo
// copies) and full 17-significant-digit precision (formatted).
func BenchmarkBatchDecodeRender(b *testing.B) {
	const profiles, n = 4, 16384
	rng := rand.New(rand.NewPCG(5, 6))
	for _, spelling := range []struct {
		name string
		tok  func() string
	}{
		{"5dec", func() string {
			return strconv.FormatFloat(float64(1+rng.IntN(100000))/100000, 'f', -1, 64)
		}},
		{"17dig", func() string { return strconv.FormatFloat(0.1+0.9*rng.Float64(), 'f', 17, 64) }},
	} {
		spelled := make([][]string, profiles)
		for i := range spelled {
			spelled[i] = make([]string, n)
			for j := range spelled[i] {
				spelled[i][j] = spelling.tok()
			}
		}
		body := batchBodyOf(spelled, ",")
		s := NewServer()
		req, status, msg := s.decodeBatchRequest(body)
		if status != 0 {
			b.Fatalf("decode: %d %s", status, msg)
		}
		fms := make([]incr.FullMeasure, profiles)
		for i, p := range req.profiles {
			fms[i] = incr.MeasureProfile(req.m, p, 1)
		}
		perRho := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(profiles*n), "ns/rho")
		}
		b.Run("decode/"+spelling.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, status, _ := s.decodeBatchRequest(body); status != 0 {
					b.Fatal(status)
				}
			}
			perRho(b)
		})
		b.Run("render/"+spelling.name, func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				for k, p := range req.profiles {
					buf = appendMeasureTail(appendEcho(buf[:0], p, req.echoes[k]), fms[k])
				}
			}
			perRho(b)
		})
	}
}
