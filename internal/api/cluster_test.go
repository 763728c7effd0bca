package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hetero/internal/cluster"
	"hetero/internal/spill"
)

// testFleet is a fleet of in-process replicas behind real listeners.
type testFleet struct {
	servers []*Server
	http    []*httptest.Server
	addrs   []string
}

// newTestFleet starts n replicas, binds their listeners, then attaches the
// peer tier with the full membership — the late-bound EnableCluster order
// heterod and benchserve both use.
func newTestFleet(t *testing.T, n int, cfg func(i int) cluster.Config) *testFleet {
	t.Helper()
	f := &testFleet{}
	for i := 0; i < n; i++ {
		s := NewServerCacheSize(256)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		f.servers = append(f.servers, s)
		f.http = append(f.http, ts)
		f.addrs = append(f.addrs, strings.TrimPrefix(ts.URL, "http://"))
	}
	for i, s := range f.servers {
		c := cluster.Config{Self: f.addrs[i], Peers: f.addrs, HedgeDelay: -1, Timeout: time.Second}
		if cfg != nil {
			c = cfg(i)
		}
		p, err := cluster.New(c)
		if err != nil {
			t.Fatal(err)
		}
		s.EnableCluster(p)
	}
	return f
}

// ownerIndex says which replica owns the canonical key of the given query on
// replica 0's ring (all rings agree).
func (f *testFleet) ownerIndex(t *testing.T, rawQuery string) int {
	t.Helper()
	s := f.servers[0]
	sc := &measureScratch{}
	m, _, status, msg := s.parseMeasureQuery(sc, rawQuery)
	if status != 0 {
		t.Fatalf("parse %q: %d %s", rawQuery, status, msg)
	}
	key := appendCanonicalKey(nil, m, sc.rhos)
	owner, _ := s.cluster.Owner(hashKey(key))
	for i, a := range f.addrs {
		if a == owner {
			return i
		}
	}
	t.Fatalf("owner %q not in fleet %v", owner, f.addrs)
	return -1
}

// queryOwnedBy searches small profile queries until one's canonical key is
// owned by replica want and not (when distinct is true) by the toucher.
func (f *testFleet) queryOwnedBy(t *testing.T, want int) string {
	t.Helper()
	for seed := 0; seed < 1000; seed++ {
		q := fmt.Sprintf("profile=1,0.5,0.%03d", seed+100)
		if f.ownerIndex(t, q) == want {
			return q
		}
	}
	t.Fatal("no query found owned by the wanted replica")
	return ""
}

func clusterStatzOf(t *testing.T, s *Server) ClusterStats {
	t.Helper()
	w := httptest.NewRecorder()
	s.handleStatz(w, httptest.NewRequest(http.MethodGet, "/v1/statz", nil))
	var out StatzResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("statz: %v", err)
	}
	return out.Cluster
}

// TestPeerFetchGolden pins the tier's core guarantee: a response served via
// a peer fetch is byte-identical to the one local evaluation produces, and
// the fetching replica runs zero evaluations for it.
func TestPeerFetchGolden(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	q := f.queryOwnedBy(t, 0)

	solo := NewServerCacheSize(16)
	status, want := solo.MeasureQuery(q)
	if status != 200 {
		t.Fatalf("solo status %d", status)
	}

	// Warm the owner, then ask the non-owner: its miss must resolve via the
	// peer tier, byte-identical.
	if status, body := f.servers[0].MeasureQuery(q); status != 200 || !bytes.Equal(body, want) {
		t.Fatalf("owner: status %d, body match %v", status, bytes.Equal(body, want))
	}
	status, got := f.servers[1].MeasureQuery(q)
	if status != 200 {
		t.Fatalf("peer fetch status %d", status)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer-fetched body differs:\n got %q\nwant %q", got, want)
	}
	if evals := f.servers[1].MeasureEvals(); evals != 0 {
		t.Fatalf("non-owner ran %d evaluations, want 0", evals)
	}
	cs := clusterStatzOf(t, f.servers[1])
	if cs.PeerHits != 1 || cs.Fallbacks != 0 {
		t.Fatalf("fetcher cluster stats: %+v", cs)
	}
	os := clusterStatzOf(t, f.servers[0])
	if os.ServedGets != 1 {
		t.Fatalf("owner served_gets = %d, want 1", os.ServedGets)
	}

	// A repeat on the fetcher is now a plain local hit: still identical, no
	// new peer traffic.
	if _, body := f.servers[1].MeasureQuery(q); !bytes.Equal(body, want) {
		t.Fatal("local re-hit after peer fetch differs")
	}
	if cs2 := clusterStatzOf(t, f.servers[1]); cs2.PeerHits != 1 {
		t.Fatalf("re-hit went back to the peer: %+v", cs2)
	}
}

// TestPeerPushWarmsOwner pins the push-on-fallback half of the convergence
// argument: when a non-owner evaluates (cold fleet), the owner is warmed
// without ever evaluating.
func TestPeerPushWarmsOwner(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	q := f.queryOwnedBy(t, 0)

	// Cold fleet; the non-owner touches first: peer miss, local evaluation,
	// push to the owner.
	status, want := f.servers[1].MeasureQuery(q)
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	if evals := f.servers[1].MeasureEvals(); evals != 1 {
		t.Fatalf("toucher evals = %d, want 1", evals)
	}
	cs := clusterStatzOf(t, f.servers[1])
	if cs.PeerMisses != 1 || cs.Pushes != 1 || cs.PushErrors != 0 {
		t.Fatalf("toucher cluster stats: %+v", cs)
	}

	// The owner now serves from cache: zero evaluations fleet-wide beyond
	// the first.
	status, got := f.servers[0].MeasureQuery(q)
	if status != 200 || !bytes.Equal(got, want) {
		t.Fatalf("owner after push: status %d, match %v", status, bytes.Equal(got, want))
	}
	if evals := f.servers[0].MeasureEvals(); evals != 0 {
		t.Fatalf("owner evals = %d, want 0 (push should have warmed it)", evals)
	}
	os := clusterStatzOf(t, f.servers[0])
	if os.AcceptedPuts != 1 {
		t.Fatalf("owner accepted_puts = %d, want 1", os.AcceptedPuts)
	}
}

// TestPeerFallbackAllPeersDown pins the never-worse guarantee: with every
// peer dead, each request still answers 200 with the correct bytes via
// local evaluation.
func TestPeerFallbackAllPeersDown(t *testing.T) {
	// One live replica whose two "peers" are closed listeners.
	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead2 := httptest.NewServer(http.NotFoundHandler())
	d1 := strings.TrimPrefix(dead1.URL, "http://")
	d2 := strings.TrimPrefix(dead2.URL, "http://")
	dead1.Close()
	dead2.Close()

	s := NewServerCacheSize(64)
	p, err := cluster.New(cluster.Config{
		Self:       "127.0.0.1:1",
		Peers:      []string{"127.0.0.1:1", d1, d2},
		HedgeDelay: time.Millisecond,
		Timeout:    200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.EnableCluster(p)
	solo := NewServerCacheSize(64)

	sawPeerOwned := false
	for i := 0; i < 12; i++ {
		q := fmt.Sprintf("profile=1,0.75,0.%03d", i+200)
		_, want := solo.MeasureQuery(q)
		status, got := s.MeasureQuery(q)
		if status != 200 || !bytes.Equal(got, want) {
			t.Fatalf("query %d with peers down: status %d, match %v", i, status, bytes.Equal(got, want))
		}
		sc := &measureScratch{}
		m, _, _, _ := s.parseMeasureQuery(sc, q)
		if _, self := s.cluster.Owner(hashKey(appendCanonicalKey(nil, m, sc.rhos))); !self {
			sawPeerOwned = true
		}
	}
	if !sawPeerOwned {
		t.Fatal("no query was peer-owned; fallback path never exercised")
	}
	cs := clusterStatzOf(t, s)
	if cs.Errors == 0 || cs.Fallbacks == 0 {
		t.Fatalf("expected fetch errors + fallbacks with all peers down: %+v", cs)
	}
	if cs.LocalEvals != 12 {
		t.Fatalf("local_evals = %d, want 12 (every request evaluated locally)", cs.LocalEvals)
	}
}

// TestPeerEndpointValidation pins the protocol's guard rails.
func TestPeerEndpointValidation(t *testing.T) {
	// Without a tier attached: gets answer 404 (miss), puts are rejected.
	bare := NewServerCacheSize(16)
	h := bare.Handler()
	do := func(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return w
	}
	if w := do(h, http.MethodPost, cluster.PeerGetPath, []byte("cwhatever")); w.Code != http.StatusNotFound {
		t.Fatalf("get without tier: %d", w.Code)
	}
	if w := do(h, http.MethodPost, cluster.PeerPutPath, []byte("ckey\nbody")); w.Code != http.StatusBadRequest {
		t.Fatalf("put without tier: %d", w.Code)
	}
	if w := do(h, http.MethodGet, cluster.PeerGetPath, nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on peer get: %d", w.Code)
	}

	f := newTestFleet(t, 2, nil)
	s0, h0 := f.servers[0], f.http[0].Config.Handler

	// Malformed frames and unknown layers.
	for _, body := range [][]byte{nil, {'c'}, []byte("x123")} {
		if w := do(h0, http.MethodPost, cluster.PeerGetPath, body); w.Code != http.StatusBadRequest && w.Code != http.StatusNotFound {
			t.Fatalf("get %q: %d", body, w.Code)
		}
	}
	if w := do(h0, http.MethodPost, cluster.PeerPutPath, []byte("cnonewline")); w.Code != http.StatusBadRequest {
		t.Fatalf("put without newline: %d", w.Code)
	}

	// A put for a key this replica does not own is rejected.
	q := f.queryOwnedBy(t, 1) // owned by replica 1, offered to replica 0
	sc := &measureScratch{}
	m, _, _, _ := s0.parseMeasureQuery(sc, q)
	key := appendCanonicalKey(nil, m, sc.rhos)
	frame := append(append([]byte{cluster.LayerCanonical}, key...), '\n')
	frame = append(frame, []byte(`{"fake":1}`)...)
	if w := do(h0, http.MethodPost, cluster.PeerPutPath, frame); w.Code != http.StatusBadRequest {
		t.Fatalf("put for peer-owned key: %d", w.Code)
	}

	// A put whose key is not strictly canonical is rejected even on the
	// right owner.
	bogus := []byte("cnot-a-canonical-key\nbody")
	if w := do(h0, http.MethodPost, cluster.PeerPutPath, bogus); w.Code != http.StatusBadRequest {
		t.Fatalf("put with bogus key: %d", w.Code)
	}
	// Raw-layer puts below the front-layer threshold are rejected.
	small := append(append([]byte{cluster.LayerRaw}, []byte("profile=1,0.5")...), '\n')
	small = append(small, []byte("body")...)
	if w := do(h0, http.MethodPost, cluster.PeerPutPath, small); w.Code != http.StatusBadRequest {
		t.Fatalf("small raw put: %d", w.Code)
	}
	if cs := clusterStatzOf(t, s0); cs.RejectedPuts < 3 {
		t.Fatalf("rejected_puts = %d, want ≥3", cs.RejectedPuts)
	}
}

// TestPeerRawLayer exercises the raw-front peer path: a large exact spelling
// warmed on its raw-owner is served to the rest of the fleet without any
// parsing, byte-identical.
func TestPeerRawLayer(t *testing.T) {
	f := newTestFleet(t, 2, nil)

	// Build a ≥4096-byte query and find a spelling whose raw hash is owned
	// by replica 0 (vary a tail parameter to move the hash).
	var q string
	ownedBy0 := false
	for seed := 0; seed < 200 && !ownedBy0; seed++ {
		var sb strings.Builder
		sb.WriteString("profile=1")
		for i := 0; i < 700; i++ {
			fmt.Fprintf(&sb, ",0.%03d", 100+(i+seed)%800)
		}
		q = sb.String()
		if len(q) < rawFastPathMinQuery {
			t.Fatalf("query too short: %d", len(q))
		}
		owner, _ := f.servers[1].cluster.Owner(hashKey(q))
		ownedBy0 = owner == f.addrs[0]
	}
	if !ownedBy0 {
		t.Fatal("no raw spelling owned by replica 0 found")
	}

	solo := NewServerCacheSize(16)
	_, want := solo.MeasureQuery(q)

	if status, body := f.servers[0].MeasureQuery(q); status != 200 || !bytes.Equal(body, want) {
		t.Fatalf("owner raw warm: %d", status)
	}
	status, got := f.servers[1].MeasureQuery(q)
	if status != 200 || !bytes.Equal(got, want) {
		t.Fatalf("raw peer fetch: status %d, match %v", status, bytes.Equal(got, want))
	}
	if evals := f.servers[1].MeasureEvals(); evals != 0 {
		t.Fatalf("raw fetcher evals = %d, want 0", evals)
	}
	if cs := clusterStatzOf(t, f.servers[1]); cs.PeerHits == 0 {
		t.Fatalf("no raw peer hit recorded: %+v", cs)
	}
}

// TestStatzUptimeAndBuild covers the fleet-operator statz additions.
func TestStatzUptimeAndBuild(t *testing.T) {
	s := NewServerCacheSize(16)
	_ = s.Handler()
	time.Sleep(10 * time.Millisecond)
	w := httptest.NewRecorder()
	s.handleStatz(w, httptest.NewRequest(http.MethodGet, "/v1/statz", nil))
	var out StatzResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.UptimeSeconds <= 0 {
		t.Fatalf("uptime_seconds = %v, want > 0", out.UptimeSeconds)
	}
	if out.Build.GoVersion == "" {
		t.Fatal("build.go_version empty")
	}
	if !out.Cluster.Enabled && out.Cluster.Replicas != 0 {
		t.Fatalf("disabled cluster block reports replicas: %+v", out.Cluster)
	}
	// The block round-trips through real JSON (field names pinned).
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"uptime_seconds", "build", "cluster"} {
		if _, ok := raw[field]; !ok {
			t.Fatalf("statz missing %q", field)
		}
	}
}

// TestPeerGetDoesNotEvaluate pins the no-amplification property: a get for
// a cold key answers 404 without running an evaluation.
func TestPeerGetDoesNotEvaluate(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	q := f.queryOwnedBy(t, 0)
	sc := &measureScratch{}
	m, _, _, _ := f.servers[0].parseMeasureQuery(sc, q)
	key := appendCanonicalKey(nil, m, sc.rhos)

	resp, err := http.Post(f.http[0].URL+cluster.PeerGetPath, "application/octet-stream",
		bytes.NewReader(append([]byte{cluster.LayerCanonical}, key...)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold peer get: %d, want 404", resp.StatusCode)
	}
	if evals := f.servers[0].MeasureEvals(); evals != 0 {
		t.Fatalf("peer get triggered %d evaluations", evals)
	}
	if cs := clusterStatzOf(t, f.servers[0]); cs.ServedGetMisses != 1 {
		t.Fatalf("served_get_misses = %d, want 1", cs.ServedGetMisses)
	}
}

// TestPeerGetServesFromSpill: an owner that holds a key only on disk must
// still answer /internal/peer/get with the cached bytes — CRC-verified,
// with zero evaluations — instead of forcing the asking replica into a
// redundant local evaluation. This is what keeps the fleet's
// evals-per-key bound intact after the owner's memory tier turns over.
func TestPeerGetServesFromSpill(t *testing.T) {
	dir := t.TempDir()
	st, err := spill.Open(spill.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// The owner's memory tier holds ~2 entries, so filler traffic evicts
	// the key under test; write-through makes it durable at admission.
	s0 := NewServerWithCache(CacheConfig{Entries: 256, MaxBytes: 700, Shards: 1, Coalesce: true})
	s0.EnableSpillOptions(st, SpillOptions{WriteThrough: true})
	t.Cleanup(s0.CloseSpill)
	s1 := NewServerCacheSize(256)
	f := &testFleet{servers: []*Server{s0, s1}}
	for _, s := range f.servers {
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		f.http = append(f.http, ts)
		f.addrs = append(f.addrs, strings.TrimPrefix(ts.URL, "http://"))
	}
	for i, s := range f.servers {
		p, err := cluster.New(cluster.Config{Self: f.addrs[i], Peers: f.addrs, HedgeDelay: -1, Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		s.EnableCluster(p)
	}

	// Collect owner-owned queries: the first is the key under test, the
	// rest are the filler that evicts it from the owner's memory tier.
	// All are self-owned on s0, so warming them never touches the peer.
	var owned []string
	for seed := 0; seed < 2000 && len(owned) < 13; seed++ {
		q := fmt.Sprintf("profile=1,0.5,0.%03d", seed+100)
		if f.ownerIndex(t, q) == 0 {
			owned = append(owned, q)
		}
	}
	if len(owned) < 13 {
		t.Fatalf("found only %d owner-owned queries", len(owned))
	}
	q := owned[0]
	status, want := s0.MeasureQuery(q)
	if status != 200 {
		t.Fatalf("owner warm status %d", status)
	}
	sc := &measureScratch{}
	m, _, pstatus, msg := s0.parseMeasureQuery(sc, q)
	if pstatus != 0 {
		t.Fatalf("parse: %d %s", pstatus, msg)
	}
	key := appendCanonicalKey(nil, m, sc.rhos)
	waitSpill(t, "write-through offer to land", func() bool {
		_, ok := s0.spillGet(spillLayerCanonical, string(key))
		return ok
	})
	for _, fq := range owned[1:] {
		if status, _ := s0.MeasureQuery(fq); status != 200 {
			t.Fatalf("filler %q status %d", fq, status)
		}
	}
	if _, ok := s0.cache.Get(string(key)); ok {
		t.Fatal("key still memory-resident on the owner; test needs it disk-only")
	}
	ownerEvals := s0.MeasureEvals()

	// The non-owner's miss goes to the owner, whose memory misses but
	// whose spill tier serves the verified bytes — no evaluation anywhere.
	status, got := s1.MeasureQuery(q)
	if status != 200 {
		t.Fatalf("peer fetch status %d", status)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("spill-served peer body differs:\n got %q\nwant %q", got, want)
	}
	if evals := s1.MeasureEvals(); evals != 0 {
		t.Fatalf("non-owner ran %d evaluations, want 0", evals)
	}
	if evals := s0.MeasureEvals(); evals != ownerEvals {
		t.Fatalf("owner re-evaluated (%d -> %d) serving a disk-resident key", ownerEvals, evals)
	}
	cs := clusterStatzOf(t, s0)
	if cs.ServedGetsSpill != 1 {
		t.Fatalf("served_gets_spill = %d, want 1 (stats %+v)", cs.ServedGetsSpill, cs)
	}
	fcs := clusterStatzOf(t, s1)
	if fcs.PeerHits != 1 {
		t.Fatalf("fetcher peer_hits = %d, want 1", fcs.PeerHits)
	}
}
