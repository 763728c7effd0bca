package api

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
)

// The streaming render path for POST /v1/batch. The buffered path
// (batchpath.go) assembles the whole response — up to MaxBatchProfiles
// large-n fragments — in one []byte before writing, so its peak memory is
// O(sum of fragment sizes): exactly where the paper's workload model (batch
// evaluation over many heterogeneity profiles) pushes hardest. This file
// renders the same bytes incrementally: the `{"count":N,"results":[`
// envelope goes out first, then each per-profile fragment is rendered into
// a small reusable buffer, written, and flushed, so peak memory is O(the
// largest single fragment) no matter how many profiles the batch carries.
//
// The streamed bytes are bit-identical to the buffered rendering on
// success — both splice the same measure-body fragments into the same
// frame, and incr.MeasureProfile is worker-count invariant — so the
// buffered golden test (batch ≡ spliced per-profile measure) doubles as the
// streaming oracle. What streaming gives up is cacheability: bytes that
// were never assembled cannot be admitted to the raw body-front, so
// responses *worth caching* (small enough to buffer) keep the buffered
// path, and the two are arbitrated by incr.ScheduleBatch's work-units
// heuristic against the stream threshold (see serveBatch).
//
// Errors after the first flushed byte cannot become an HTTP error status;
// the JSON is instead terminated with a structured trailer object (see
// writeStreamTrailer) that tells the client the results array is truncated
// and why.

// DefaultStreamBatchThreshold is the work-units estimate (incr.WorkUnits:
// one unit per ρ-value) at which a /v1/batch response streams instead of
// buffering, when the Server does not override it. One unit costs ~19
// bytes of rendered response at full float precision, so the default —
// one million units — streams responses past roughly 20 MB while smaller
// (cacheable) responses keep the buffered raw-body-front treatment.
const DefaultStreamBatchThreshold = 1 << 20

// streamBatchThreshold resolves the Server's streaming threshold.
func (s *Server) streamBatchThreshold() int {
	if s.streamThreshold > 0 {
		return s.streamThreshold
	}
	return DefaultStreamBatchThreshold
}

// BatchBodyStream runs the POST /v1/batch hot path for a raw request body
// and always streams, writing the response to w instead of assembling it. A
// non-200 status means the request was rejected before any byte was
// written (msg describes why, nothing reaches w). Status 200 with a nil
// error means the complete response — bit-identical to BatchBody's — was
// written; a non-nil error means the stream terminated early with the
// structured JSON trailer (context cancellation) or an unfinished body
// (write failure). A nil ctx means context.Background. It exists so
// cmd/benchbatch and the equivalence/fuzz tests can drive the streaming
// engine free of net/http.
func (s *Server) BatchBodyStream(ctx context.Context, w io.Writer, body []byte) (status int, msg string, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	status, resp, msg, err := s.serveBatch(ctx, w, body, 0)
	if resp != nil {
		_, err = w.Write(resp)
	}
	return status, msg, err
}

// beginStream commits w to a streamed 200 response: over HTTP it sends the
// header now. It returns the per-fragment flush (a no-op when w cannot
// flush).
func (s *Server) beginStream(w io.Writer) (flush func()) {
	s.batchStreamed.Add(1)
	if rw, ok := w.(http.ResponseWriter); ok {
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusOK)
	}
	if f, ok := w.(http.Flusher); ok {
		return f.Flush
	}
	return func() {}
}

// writeBatchStream is the incremental renderer: envelope, then one
// fragment at a time from a reusable buffer, then the closing frame,
// flushing after every fragment so the peak buffered state — ours and
// net/http's — stays O(one fragment). The produced bytes match
// renderBatchBuffered exactly on success. With spill on, a non-empty store
// key skey also tees the bytes into a spill appender (its private segment
// file), committed only when the stream completes cleanly — an error
// trailer or snapped connection aborts the tee so no truncated response
// can ever be served later. Appender writes never fail the client stream:
// their errors surface as a failed Commit.
//
// Dedupe still evaluates each distinct profile once: a fragment whose
// profile recurs later in the batch is retained (a stable copy when it was
// rendered into the scratch buffer) until its last use is written, then
// released — so retention is bounded by the duplicated uniques actually in
// flight, and a fully distinct sweep retains nothing.
//
// Cancellation is checked before each fragment's evaluation, so a client
// disconnect aborts the per-profile work promptly instead of evaluating
// the remaining profiles into a dead socket.
func (s *Server) writeBatchStream(ctx context.Context, w io.Writer, req decodedBatch, skey string) (err error) {
	flush := s.beginStream(w)
	if ap := s.batchFront.tee(skey); ap != nil {
		defer func() {
			if err == nil {
				ap.Commit()
			} else {
				ap.Abort()
			}
		}()
		w = io.MultiWriter(w, ap)
	}
	profiles := req.profiles
	uniq, canon, dups := dedupeProfiles(profiles)
	s.batchDeduped.Add(uint64(dups))
	lastUse := make([]int, len(uniq))
	for i, u := range canon {
		lastUse[u] = i
	}
	held := make([][]byte, len(uniq))

	scratch := make([]byte, 0, 4096)
	env := make([]byte, 0, 32)
	env = append(env, `{"count":`...)
	env = strconv.AppendInt(env, int64(len(profiles)), 10)
	env = append(env, `,"results":[`...)
	if _, err := w.Write(env); err != nil {
		return err
	}
	for i := range profiles {
		if err := ctx.Err(); err != nil {
			return s.writeStreamTrailer(w, flush, i, err)
		}
		u := canon[i]
		frag := held[u]
		if frag == nil {
			var stable bool
			frag, stable = s.batchFragment(&scratch, req.m, profiles[uniq[u]], req.echoes[uniq[u]])
			if lastUse[u] > i {
				if !stable {
					cp := make([]byte, len(frag))
					copy(cp, frag)
					frag = cp
				}
				held[u] = frag
			}
		}
		if i > 0 {
			if _, err := w.Write(commaByte); err != nil {
				return err
			}
		}
		// Each fragment is a full measure body; the trailing newline only
		// belongs to the end of the response.
		if _, err := w.Write(frag[:len(frag)-1]); err != nil {
			return err
		}
		if lastUse[u] == i {
			held[u] = nil
		}
		flush()
	}
	if _, err := w.Write(closeFrame); err != nil {
		return err
	}
	flush()
	return nil
}

var (
	commaByte  = []byte{','}
	closeFrame = []byte("]}\n")
)

// writeStreamTrailer terminates a partially streamed response as valid
// JSON: the results array is closed and a structured error object is
// appended, so a client sees
//
//	{"count":N,"results":[...],"error":{"message":M,"results_written":K}}
//
// with K < N — unambiguous truncation rather than a snapped connection.
// The returned error is the cause, so callers can report it.
func (s *Server) writeStreamTrailer(w io.Writer, flush func(), written int, cause error) error {
	msg, err := json.Marshal(cause.Error())
	if err != nil {
		msg = []byte(`"error"`)
	}
	t := make([]byte, 0, 48+len(msg))
	t = append(t, `],"error":{"message":`...)
	t = append(t, msg...)
	t = append(t, `,"results_written":`...)
	t = strconv.AppendInt(t, int64(written), 10)
	t = append(t, '}', '}', '\n')
	if _, werr := w.Write(t); werr != nil {
		return werr
	}
	flush()
	return cause
}
