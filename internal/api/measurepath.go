package api

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"hetero/internal/cluster"
	"hetero/internal/incr"
	"hetero/internal/model"
	"hetero/internal/profile"
)

// The /v1/measure hot path. GET /v1/measure is the service's dominant
// traffic shape, and — FIFO optimality depending only on the profile — the
// steady state is overwhelmingly cache hits. This file makes that steady
// state allocation-free: the query is parsed by slicing the raw string (no
// url.Values map), the canonical key is built into a pooled byte buffer,
// and the cache is probed with the compiler's string(bytes) map-lookup
// optimization. The alloc gates in measure_alloc_test.go pin the cached
// path to 0 allocs/op and bound the miss path.
//
// Pool ownership rule: a measureScratch belongs to exactly one request from
// Get to Put; nothing it holds may outlive the request. Bodies handed to
// the caller are either cache-owned (stable) or freshly copied, never
// aliases of scratch memory.

// measureScratch carries the per-request buffers of the measure hot path.
type measureScratch struct {
	rhos []float64 // decoded profile
	key  []byte    // canonical cache key
	enc  []byte    // JSON encoding buffer (miss path)
}

var measureScratchPool = sync.Pool{
	New: func() interface{} {
		return &measureScratch{
			rhos: make([]float64, 0, 64),
			key:  make([]byte, 0, 512),
			enc:  make([]byte, 0, 1024),
		}
	},
}

// MeasureQuery runs the /v1/measure hot path for a raw query string without
// the HTTP layer: parse, canonicalize, cache lookup, and on a miss the
// (possibly chunked-parallel) evaluation plus JSON encoding. It returns the
// HTTP status and, for status 200, the response body. It exists so the
// benchmark harness (cmd/benchserve) and the allocation gates can measure
// the serving path proper, free of net/http and ResponseWriter overhead.
// The returned body is cache-owned or freshly allocated — never scratch —
// so it remains valid after the call.
func (s *Server) MeasureQuery(rawQuery string) (status int, body []byte) {
	sc := measureScratchPool.Get().(*measureScratch)
	status, body, _ = s.measure(sc, rawQuery)
	measureScratchPool.Put(sc)
	return status, body
}

// rawFastPathMinQuery is the query length at which the raw-query front
// cache engages. Parsing and canonical-key building cost O(len(query)); for
// large profiles they rival the evaluation itself, so a herd of identical
// large requests gains little from coalescing at the canonical layer alone
// — every member still pays the parse. Above this threshold the raw
// RawQuery string is itself a cache key checked before any parsing: an
// exact-spelling hit (or coalesced wait) skips the parse entirely. Below
// it, parsing costs microseconds and the canonical layer's exact-LRU
// behavior (which small-cache tests pin) is preserved untouched.
const rawFastPathMinQuery = 4096

// rawFrontEngages reports whether rawQuery is served through the raw-query
// front cache. The fleet tier keys off this too: a request does its peer
// fetch/push at the layer it will be cached at, and only there.
func (s *Server) rawFrontEngages(rawQuery string) bool {
	return len(rawQuery) >= rawFastPathMinQuery && s.rawCache.capacity > 0
}

// statusError carries a non-200 outcome through the raw layer's
// singleflight so every coalesced waiter of a malformed herd receives the
// same status and message, and nothing is cached.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// measure is the hot path shared by handleMeasure and MeasureQuery. On
// error it returns (status, nil, message); on success (200, body, "").
//
// Large queries go through the raw-query front cache first — exact
// RawQuery string → body, nginx-style — so repeated identical spellings
// skip the parse. Different spellings of the same cluster still unify at
// the canonical layer below. The raw layer never caches errors, and its
// mapping is deterministic (the response depends only on the query), so a
// raw entry outliving its canonical twin still serves correct bytes.
func (s *Server) measure(sc *measureScratch, rawQuery string) (int, []byte, string) {
	if s.rawFrontEngages(rawQuery) {
		h := hashKey(rawQuery)
		if body, _, ok := lookup(s.rawCache, h, rawQuery); ok {
			return 200, body, ""
		}
		body, _, _, err := fill(s.rawCache, h, rawQuery, func() ([]byte, int64, error) {
			// Spill tier: a raw entry this layer evicted — or, in
			// write-through mode, one persisted at admission time and
			// surviving a restart — may still be on disk. Consulted after
			// the memory layers (we are the flight leader of a miss) and
			// before any peer fetch or evaluation; a hit is promoted back
			// into memory by the fill insert and skips the parse exactly
			// as a raw-layer peer hit would.
			if b, ok := s.spillGet(spillLayerRaw, rawQuery); ok {
				return b, 0, nil
			}
			// Fleet tier: this exact spelling may already be warm on its
			// owning replica. A raw-layer peer hit skips the parse entirely —
			// the whole point of peering this layer — and a fallback remembers
			// the owner so the locally computed body is offered back to it.
			var pushOwner string
			if cl := s.cluster; cl != nil {
				if owner, self := cl.Owner(h); !self {
					if b, ok := cl.Fetch(owner, cluster.LayerRaw, []byte(rawQuery)); ok {
						return b, 0, nil
					}
					pushOwner = owner
				}
			}
			// With coalescing on, hand the raw query to the admission batcher
			// before any parsing: the flush shares the decode, moments and
			// render across the herd. We are this spelling's flight leader, so
			// the raw front still caches whatever comes back. A rejected
			// submit (queue full, draining) falls through to the inline path.
			if b := s.batcher; b != nil {
				if res, ok := b.submitRaw(rawQuery); ok {
					if res.status != 200 {
						return nil, 0, &statusError{status: res.status, msg: res.msg}
					}
					if pushOwner != "" {
						s.cluster.Push(pushOwner, cluster.LayerRaw, []byte(rawQuery), res.body)
					}
					return res.body, 0, nil
				}
			}
			status, body, msg := s.measureCanonical(sc, rawQuery)
			if status != 200 {
				return nil, 0, &statusError{status: status, msg: msg}
			}
			if pushOwner != "" {
				s.cluster.Push(pushOwner, cluster.LayerRaw, []byte(rawQuery), body)
			}
			return body, 0, nil
		})
		if err != nil {
			if se, ok := err.(*statusError); ok {
				return se.status, nil, se.msg
			}
			return 500, nil, err.Error()
		}
		return 200, body, ""
	}
	return s.measureCanonical(sc, rawQuery)
}

// measureCanonical is the canonical-key layer: parse, canonicalize, sharded
// lookup, singleflight-coalesced evaluation on a miss.
func (s *Server) measureCanonical(sc *measureScratch, rawQuery string) (int, []byte, string) {
	m, spelled, status, msg := s.parseMeasureQuery(sc, rawQuery)
	if status != 0 {
		return status, nil, msg
	}
	sc.key = appendCanonicalKey(sc.key[:0], m, sc.rhos)
	h := hashKey(sc.key)
	if body, _, ok := lookup(s.cache, h, sc.key); ok {
		return 200, body, ""
	}
	// Miss: evaluate and encode under singleflight, so a burst of identical
	// misses costs one evaluation. The closure allocates (it escapes), which
	// is part of the documented miss-path allocation budget. With coalescing
	// on, the evaluation is handed to the admission batcher instead — we are
	// this key's flight leader, so the body the flush computes is published
	// here exactly as an inline evaluation would be; a rejected submit falls
	// through to the inline path.
	body, _, _, err := fill(s.cache, h, sc.key, func() ([]byte, int64, error) {
		// Spill tier: disk before peers, peers before evaluation. A hit
		// returns the stored bytes verbatim (CRC-checked); the fill
		// insert promotes them back into the memory tier. In
		// write-through mode this is also the warm-restart path: the key
		// was persisted at admission (or by the shutdown flush), so a
		// reopened store answers here with zero re-evaluations.
		if b, ok := s.spillGet(spillLayerCanonical, string(sc.key)); ok {
			return b, 0, nil
		}
		// Fleet tier: on a miss of a peer-owned key, ask the owner for the
		// cached bytes before evaluating (hedged; never triggers evaluation
		// on the owner). Timeout or error falls through to the local paths
		// below — a degraded fleet serves exactly as a single replica would —
		// and the locally computed body is then offered back to the owner so
		// the fleet still converges on one evaluation per key. Each request
		// consults at most ONE peer layer — the one it will be cached at: a
		// large query already did its peer work at the raw front above, and
		// repeating it here would double the (key-sized) upload and the tail
		// for a fetch that can only hit when the same cluster was warmed
		// under a different spelling.
		var pushOwner string
		if cl := s.cluster; cl != nil && !s.rawFrontEngages(rawQuery) {
			if owner, self := cl.Owner(h); !self {
				if b, ok := cl.Fetch(owner, cluster.LayerCanonical, sc.key); ok {
					return b, 0, nil
				}
				pushOwner = owner
			}
		}
		if b := s.batcher; b != nil {
			if out, ok := b.submitParsed(m, sc.rhos, spelled); ok {
				if pushOwner != "" {
					s.cluster.Push(pushOwner, cluster.LayerCanonical, sc.key, out)
				}
				return out, 0, nil
			}
		}
		s.measureEvals.Add(1)
		fm := incr.MeasureProfile(m, profile.Profile(sc.rhos), 0)
		sc.enc = appendMeasureTail(appendEcho(sc.enc[:0], sc.rhos, spelled), fm)
		out := make([]byte, len(sc.enc))
		copy(out, sc.enc)
		if pushOwner != "" {
			s.cluster.Push(pushOwner, cluster.LayerCanonical, sc.key, out)
		}
		return out, 0, nil
	})
	if err != nil {
		return 500, nil, err.Error()
	}
	return 200, body, ""
}

// measureQueryParts holds the four decoded parameter values of a measure
// query, still as strings. splitMeasureQuery fills it; parseMeasureParams
// and parseProfileValue finish the job. The split exists so the admission
// batcher's flush can decode the (typically huge) profile value once per
// distinct spelling while still parsing the (tiny) model parameters per
// item.
type measureQueryParts struct {
	profileVal, tauVal, piVal, deltaVal string
}

// splitMeasureQuery decodes the measure parameters from the raw query by
// slicing, replicating net/url.ParseQuery semantics: '&'-separated pairs,
// first occurrence wins, pairs containing ';' are dropped, keys and values
// are percent-decoded ('+' means space). The common unescaped spelling never
// allocates; escaped pairs take a url.QueryUnescape fallback.
func splitMeasureQuery(rawQuery string) measureQueryParts {
	var q measureQueryParts
	var sawProfile, sawTau, sawPi, sawDelta bool
	rest := rawQuery
	for rest != "" {
		var pair string
		pair, rest, _ = strings.Cut(rest, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue // ParseQuery drops empty and semicolon-containing pairs
		}
		key, val, _ := strings.Cut(pair, "=")
		key, ok := unescapeComponent(key)
		if !ok {
			continue // ParseQuery drops pairs whose key fails to unescape
		}
		switch key {
		case "profile", "tau", "pi", "delta":
		default:
			continue
		}
		val, ok = unescapeComponent(val)
		if !ok {
			continue
		}
		switch key {
		case "profile":
			if !sawProfile {
				q.profileVal, sawProfile = val, true
			}
		case "tau":
			if !sawTau {
				q.tauVal, sawTau = val, true
			}
		case "pi":
			if !sawPi {
				q.piVal, sawPi = val, true
			}
		case "delta":
			if !sawDelta {
				q.deltaVal, sawDelta = val, true
			}
		}
	}
	return q
}

// parseMeasureParams decodes tau/pi/delta on top of the defaults and
// validates the resulting parameter set. Errors are reported in the same
// order as the pre-sharding handler: params first, then the profile (which
// parseProfileValue handles).
func parseMeasureParams(defaults model.Params, q measureQueryParts) (model.Params, int, string) {
	m := defaults
	for _, f := range [3]struct {
		name string
		val  string
		dst  *float64
	}{{"tau", q.tauVal, &m.Tau}, {"pi", q.piVal, &m.Pi}, {"delta", q.deltaVal, &m.Delta}} {
		if f.val == "" {
			continue
		}
		parsed, err := strconv.ParseFloat(f.val, 64)
		if err != nil {
			return m, 400, "bad " + f.name + ": " + err.Error()
		}
		*f.dst = parsed
	}
	if err := m.Validate(); err != nil {
		return m, 400, err.Error()
	}
	return m, 0, ""
}

// parseProfileValue decodes one profile parameter value into dst (reusing
// its backing array), applying the same admission checks as profile.New.
// canon reports whether every comma-separated token is already the spelling
// appendJSONFloat renders (see scanRho), so the echo may copy profileVal.
// Tokens that are JSON numbers convert through scanRho; anything else
// (surrounding spaces, hex, ".5") takes strconv.ParseFloat as before — the
// two agree bit for bit wherever both accept.
func parseProfileValue(profileVal string, dst []float64) (rhos []float64, canon bool, status int, msg string) {
	if profileVal == "" {
		return dst, false, 400, "missing profile"
	}
	dst = dst[:0]
	canon = true
	rest := profileVal
	for {
		part, tail, found := strings.Cut(rest, ",")
		v, end, tokCanon, ok := scanRho(part, 0)
		if ok && end == len(part) {
			canon = canon && tokCanon
		} else {
			canon = false
			part = strings.TrimSpace(part)
			var err error
			if v, err = strconv.ParseFloat(part, 64); err != nil {
				return dst, false, 400, fmt.Sprintf("bad ρ-value %q", part)
			}
		}
		if msg := checkRhoValue(len(dst), v); msg != "" {
			return dst, false, 400, msg
		}
		dst = append(dst, v)
		if !found {
			break
		}
		rest = tail
	}
	return dst, canon, 0, ""
}

// parseMeasureQuery decodes profile/tau/pi/delta from the raw query:
// splitMeasureQuery's pair scan, then parameters, then the profile — the
// composition the admission batcher unbundles to share the profile decode
// across a flush. spelled is the profile value when it is already the
// canonical echo text (see appendEcho), else "".
func (s *Server) parseMeasureQuery(sc *measureScratch, rawQuery string) (m model.Params, spelled string, status int, msg string) {
	q := splitMeasureQuery(rawQuery)
	m, status, msg = parseMeasureParams(s.Defaults, q)
	if status != 0 {
		return m, "", status, msg
	}
	var canon bool
	sc.rhos, canon, status, msg = parseProfileValue(q.profileVal, sc.rhos)
	if status != 0 {
		return m, "", status, msg
	}
	if canon {
		spelled = q.profileVal
	}
	return m, spelled, 0, ""
}

// checkRhoValue applies profile.New's admission checks to one decoded ρ
// without building a Profile, returning the same message text.
func checkRhoValue(i int, r float64) string {
	switch {
	case math.IsNaN(r) || math.IsInf(r, 0):
		return fmt.Sprintf("profile: ρ[%d] = %v is not finite", i, r)
	case r <= 0:
		return fmt.Sprintf("profile: ρ[%d] = %v must be positive", i, r)
	case r > 1:
		return fmt.Sprintf("profile: ρ[%d] = %v exceeds 1; normalize so the slowest computer has ρ = 1", i, r)
	}
	return ""
}

// unescapeComponent percent-decodes one query component. The fast path —
// no '%' or '+' — returns the input unchanged without allocating; anything
// else takes the url.QueryUnescape fallback. ok = false means the component
// is malformed and its pair must be dropped, as ParseQuery does.
func unescapeComponent(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, true
	}
	out, err := url.QueryUnescape(s)
	if err != nil {
		return "", false
	}
	return out, true
}

// appendProfileEcho renders the profile-echo prefix of the /v1/measure body
// — everything up to and including the closing bracket of the profile array.
// It is the profile-dependent (and typically dominant) part of the response;
// the admission batcher renders it once per distinct profile in a flush and
// memcpys it into each item's body.
func appendProfileEcho(dst []byte, rhos []float64) []byte {
	dst = append(dst, `{"profile":[`...)
	for i, rho := range rhos {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONFloat(dst, rho)
	}
	dst = append(dst, ']')
	return dst
}

// appendEcho renders the profile echo like appendProfileEcho, but copies
// spelled — the request's comma-separated ρ text — when the decoder found it
// already canonical (every token scanRho's canon), instead of re-formatting
// every float. An empty spelled means "not canonical": format as usual. A
// spelled text is a view of request bytes, so the copy is also what keeps
// rendered bodies (which the caches retain) from aliasing the request.
func appendEcho[T string | []byte](dst []byte, rhos []float64, spelled T) []byte {
	if len(spelled) == 0 {
		return appendProfileEcho(dst, rhos)
	}
	dst = append(dst, `{"profile":[`...)
	dst = append(dst, spelled...)
	return append(dst, ']')
}

// renderMeasure renders one /v1/measure body into a fresh buffer sized for
// it: the echo (copied from spelled when canonical) plus the measure tail.
func renderMeasure(rhos []float64, spelled []byte, fm incr.FullMeasure) []byte {
	size := 20 * (len(rhos) + 6)
	if len(spelled) > 0 {
		size = len(spelled) + 256 // brackets, six floats and their keys
	}
	return appendMeasureTail(appendEcho(make([]byte, 0, size), rhos, spelled), fm)
}

// appendMeasureTail renders the measure fields that follow the profile echo,
// closing the object and appending the trailing newline json.Encoder emits.
func appendMeasureTail(dst []byte, fm incr.FullMeasure) []byte {
	dst = append(dst, `,"x":`...)
	dst = appendJSONFloat(dst, fm.X)
	dst = append(dst, `,"hecr":`...)
	dst = appendJSONFloat(dst, fm.HECR)
	dst = append(dst, `,"work_rate":`...)
	dst = appendJSONFloat(dst, fm.WorkRate)
	dst = append(dst, `,"mean":`...)
	dst = appendJSONFloat(dst, fm.Mean)
	dst = append(dst, `,"variance":`...)
	dst = appendJSONFloat(dst, fm.Variance)
	dst = append(dst, `,"geo_mean":`...)
	dst = appendJSONFloat(dst, fm.GeoMean)
	dst = append(dst, '}', '\n')
	return dst
}

// appendMeasureResponse renders the /v1/measure JSON body into dst,
// byte-identical to json.Marshal of MeasureResponse (field order follows
// the struct; floats use appendJSONFloat) plus the trailing newline that
// json.Encoder emits. It always formats every ρ: the serving paths copy
// canonical spellings instead (appendEcho), and this is the formatting
// reference they are tested against.
func appendMeasureResponse(dst []byte, rhos []float64, fm incr.FullMeasure) []byte {
	dst = appendProfileEcho(dst, rhos)
	return appendMeasureTail(dst, fm)
}

// float64pow10 holds the powers of ten that float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// scanRho scans one RFC 8259 number token starting at data[i] and converts
// it. end is the index just past the token (the caller checks what follows);
// ok = false means data[i:] does not start a JSON number, or
// strconv.ParseFloat rejects it as out of range. The value is bit-identical
// to strconv.ParseFloat's: a mantissa of at most 2^53 with a decimal
// exponent within ±22 takes Clinger's exact fast path (both operands are
// exact float64 values, so one IEEE multiply or divide rounds correctly),
// and every other token calls ParseFloat itself.
//
// canon reports whether the token is already exactly what appendJSONFloat
// prints for its value: "1", or "0." + digits with no trailing zero, at
// most 5 leading fraction zeros (so the value is ≥ 1e-6 and prints in 'f'
// form) and at most 15 significant digits. Distinct decimals of at most 15
// significant digits are distinct float64 values, so the shortest
// round-trip form of such a token is the token itself. A 16- or 17-digit
// spelling may not be, so it takes the formatter.
func scanRho[T string | []byte](data T, i int) (v float64, end int, canon, ok bool) {
	n := len(data)
	start := i
	neg := i < n && data[i] == '-'
	if neg {
		i++
	}
	if i >= n || data[i] < '0' || data[i] > '9' {
		return 0, i, false, false
	}
	lead := data[i]
	var mant uint64
	nd, exp := 0, 0 // significant digits in mant; decimal exponent
	exact := true   // every significant digit fits in mant
	if lead == '0' {
		i++
	} else {
		for ; i < n && data[i] >= '0' && data[i] <= '9'; i++ {
			if nd == 19 {
				exact = false
				continue
			}
			mant = mant*10 + uint64(data[i]-'0')
			nd++
		}
	}
	intLen := i - start
	fracLen, fracZeros := 0, 0
	if i < n && data[i] == '.' {
		i++
		fracStart := i
		for ; i < n && data[i] >= '0' && data[i] <= '9'; i++ {
			switch {
			case mant == 0 && data[i] == '0':
				fracZeros++
				exp--
			case nd == 19:
				exact = false
			default:
				mant = mant*10 + uint64(data[i]-'0')
				nd++
				exp--
			}
		}
		if fracLen = i - fracStart; fracLen == 0 {
			return 0, i, false, false
		}
	}
	hasExp := i < n && (data[i] == 'e' || data[i] == 'E')
	if hasExp {
		i++
		eneg := i < n && data[i] == '-'
		if i < n && (data[i] == '+' || data[i] == '-') {
			i++
		}
		expStart, e := i, 0
		for ; i < n && data[i] >= '0' && data[i] <= '9'; i++ {
			if e < 1e4 { // beyond any float64 exponent; ParseFloat decides
				e = e*10 + int(data[i]-'0')
			}
		}
		if i == expStart {
			return 0, i, false, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	canon = !neg && !hasExp &&
		((lead == '1' && intLen == 1 && fracLen == 0) ||
			(lead == '0' && fracLen > 0 && data[i-1] != '0' && fracZeros <= 5 && fracLen-fracZeros <= 15))
	if exact && mant <= 1<<53 && exp >= -22 && exp <= 22 {
		v = float64(mant)
		if exp < 0 {
			v /= float64pow10[-exp]
		} else {
			v *= float64pow10[exp]
		}
		if neg {
			v = -v
		}
		return v, i, canon, true
	}
	v, err := strconv.ParseFloat(string(data[start:i]), 64)
	return v, i, canon, err == nil
}

// appendJSONFloat appends f exactly as encoding/json's floatEncoder renders
// a float64: shortest round-trip form, 'e' format outside [1e-6, 1e21) with
// the two-digit exponent collapsed ("e-06" → "e-6").
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
