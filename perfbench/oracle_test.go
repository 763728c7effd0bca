package main

import (
	"bytes"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"hetero/internal/api"
)

// serve answers r from a fresh cache-on server, as heterod would.
func serve(t *testing.T, r *request) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	api.NewServer().Handler().ServeHTTP(rec, httptest.NewRequest(r.method, r.target, bytes.NewReader(r.body)))
	return rec.Code, rec.Body.Bytes()
}

func TestOracleAcceptsServedBodiesAndRejectsCorruptedOnes(t *testing.T) {
	orc := newOracle()
	for _, r := range []request{genMeasureHot(7, 3), genMeasureHot(7, 25), genBatchFresh(7, 0), genPlanMix(7, 5)} {
		status, body := serve(t, &r)
		if why := judge(orc, &r, status, digestOf(body)); why != "" {
			t.Fatalf("%s %s: served body judged %q", r.kind, r.method, why)
		}
		bad := append([]byte(nil), body...)
		bad[len(bad)/2] ^= 1
		if why := judge(orc, &r, status, digestOf(bad)); why == "" {
			t.Errorf("%s: a body with one flipped bit passed", r.kind)
		}
	}
	if orc.refChecked == 0 {
		t.Error("no measure was compared with its reference form")
	}
}

// The reference forms catch a wrong X even when the oracle's own kernel
// (shared with the server) would agree with it.
func TestReferenceCheckRejectsWrongMeasure(t *testing.T) {
	r := genMeasureHot(3, 0)
	_, body := serve(t, &r)
	ms, err := scanMeasures(body)
	if err != nil || len(ms) != 1 {
		t.Fatalf("scanMeasures = %v, %v", ms, err)
	}
	orc := newOracle()
	if err := orc.checkReference(body, r.profiles); err != nil {
		t.Fatalf("served body failed the reference check: %v", err)
	}
	// A relative error of 1e-6, as a faster kernel with a lost guard
	// might make; byte-identity alone would not notice it if the oracle
	// ran the same faulty kernel.
	x := strings.SplitN(strings.SplitN(string(body), `"x":`, 2)[1], ",", 2)[0]
	off := strconv.FormatFloat(ms[0][0]*(1+1e-6), 'g', -1, 64)
	wrong := strings.Replace(string(body), `"x":`+x, `"x":`+off, 1)
	if err := orc.checkReference([]byte(wrong), r.profiles); err == nil {
		t.Error("a perturbed X passed the reference check")
	}
}
