package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"

	"hetero/internal/api"
	"hetero/internal/core"
)

// refTol is the largest relative difference allowed between a served X,
// HECR or work rate and its reference form.
const refTol = 1e-9

// expectation is what the oracle says a request must get back.
type expectation struct {
	status int
	body   digest
	refErr string // why the expected body failed the reference-form check
}

// oracle answers each request with an in-process, cache-off api.Server of
// the same commit: the served body must equal its body byte for byte. The
// oracle's own X, HECR and work rates are in turn checked against
// reference forms that share no code with the serving kernels, so a kernel
// change cannot pass by fooling an oracle built from the same kernel.
type oracle struct {
	h    http.Handler
	memo map[string]expectation
	// refChecked counts measures compared with their reference forms;
	// maxRelErr is the largest relative difference seen.
	refChecked int
	maxRelErr  float64
}

func newOracle() *oracle {
	return &oracle{h: api.NewServerCacheSize(0).Handler(), memo: map[string]expectation{}}
}

func (o *oracle) expect(r *request) expectation {
	k := r.key()
	if e, ok := o.memo[k]; ok {
		return e
	}
	rec := httptest.NewRecorder()
	o.h.ServeHTTP(rec, httptest.NewRequest(r.method, r.target, bytes.NewReader(r.body)))
	body := rec.Body.Bytes()
	e := expectation{status: rec.Code, body: digestOf(body)}
	if e.status == http.StatusOK && r.profiles != nil {
		if err := o.checkReference(body, r.profiles); err != nil {
			e.refErr = err.Error()
		}
	}
	o.memo[k] = e
	return e
}

// checkReference compares every (x, hecr, work_rate) triple of a measure
// or batch body, in order, with the reference forms for its profile: X by
// core.XDirect (the direct sum of Theorem 2's eq. (1)), the work rate from
// that X, and HECR by bisection over a Kahan-summed log1p written here.
// core.HECRNumeric is not used because it sums through the serving kernel.
func (o *oracle) checkReference(body []byte, profiles [][]float64) error {
	got, err := scanMeasures(body)
	if err != nil {
		return err
	}
	if len(got) != len(profiles) {
		return fmt.Errorf("reference: %d measures for %d profiles", len(got), len(profiles))
	}
	for i, p := range profiles {
		x := core.XDirect(defaults, p)
		want := [3]float64{x, refHECR(p), 1 / (defaults.TauDelta() + 1/x)}
		for f, name := range measureFields {
			e := relErr(got[i][f], want[f])
			o.maxRelErr = max(o.maxRelErr, e)
			if !(e <= refTol) {
				return fmt.Errorf("reference: profile %d %s = %v, reference %v (rel err %.3g)", i, name, got[i][f], want[f], e)
			}
		}
		o.refChecked++
	}
	return nil
}

var measureFields = [3]string{"x", "hecr", "work_rate"}

// scanMeasures extracts the x, hecr and work_rate fields of every measure
// object in a /v1/measure or /v1/batch body, in order, without decoding
// the (possibly multi-megabyte) profile echoes.
func scanMeasures(body []byte) ([][3]float64, error) {
	var out [][3]float64
	pos := 0
	for {
		var m [3]float64
		for f, name := range measureFields {
			tag := []byte(`"` + name + `":`)
			j := bytes.Index(body[pos:], tag)
			if j < 0 {
				if f == 0 {
					return out, nil
				}
				return nil, fmt.Errorf("reference: field %s missing", name)
			}
			pos += j + len(tag)
			end := pos
			for end < len(body) && body[end] != ',' && body[end] != '}' {
				end++
			}
			v, err := strconv.ParseFloat(string(body[pos:end]), 64)
			if err != nil {
				return nil, fmt.Errorf("reference: field %s: %w", name, err)
			}
			m[f], pos = v, end
		}
		out = append(out, m)
	}
}

func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Max(math.Abs(want), math.SmallestNonzeroFloat64)
}

// refLogRatio is log r(ρ) = log1p((τδ − A)/(Bρ + A)), written out here so
// the reference shares no code with the kernels it checks.
func refLogRatio(rho float64) float64 {
	a, b, td := defaults.A(), defaults.B(), defaults.TauDelta()
	return math.Log1p((td - a) / (b*rho + a))
}

// refHECR solves log r(ρ) = (1/n)·Σ log r(ρᵢ) for ρ by bisection, with the
// sum Kahan-compensated.
func refHECR(p []float64) float64 {
	var sum, c float64
	lo, hi := p[0], p[0]
	for _, v := range p {
		y := refLogRatio(v) - c
		t := sum + y
		c = (t - sum) - y
		sum = t
		lo, hi = min(lo, v), max(hi, v)
	}
	target := sum / float64(len(p))
	for hi-lo > 1e-15 {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		if refLogRatio(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}
