package api

import (
	"io"

	"hetero/internal/spill"
)

// tier is one response layer's read path: the canonical measure cache, the
// raw-query front or the /v1/batch body-front. It bundles the layer's
// memory cache with its spill namespace and, for the layers a fleet peer
// can address, its peer layer byte, and it owns the order a miss is
// answered in (DESIGN.md S32): memory, then spill, then the key's owning
// replica, then evaluation.
//
// Callers probe mem with lookup before building any closure, so a hit
// stays a single lock with no allocation; only a miss reaches fill.
type tier struct {
	srv   *Server
	mem   *responseCache
	layer byte // spill namespace (spillLayer*)
	peer  byte // fleet layer (cluster.Layer*); 0 = peers never address it
}

// tiers lists the server's three response layers.
func (s *Server) tiers() [3]*tier {
	return [3]*tier{&s.canon, &s.rawFront, &s.batchFront}
}

// peerTier returns the tier a fleet peer addresses with layer, or nil.
func (s *Server) peerTier(layer byte) *tier {
	for _, t := range s.tiers() {
		if t.peer != 0 && t.peer == layer {
			return t
		}
	}
	return nil
}

// fill answers a miss for key (h = hashKey(key)) under the memory cache's
// singleflight, so a herd of identical misses reads disk, asks a peer and
// evaluates at most once. Its leader reads spill, then — when peer is set
// and the key belongs to another replica — the owner's cached bytes, and
// only then runs compute, whose result is offered back to that owner. A
// peer fetch never makes the owner evaluate, and a failed or late one
// falls through to compute, so a degraded fleet serves exactly as a single
// replica would. Spill and peer hits are returned verbatim and promoted into memory by
// fill's insert; they are pushed to no peer. skey is key's spill-store key
// when the caller has already built it ("" builds it when spill is on). A
// compute error is handed to every waiter and nothing is cached or pushed.
func (t *tier) fill(h uint64, key, skey string, peer bool, compute func() ([]byte, int64, error)) (body []byte, meta int64, coalesced bool, err error) {
	return fill(t.mem, h, key, func() ([]byte, int64, error) {
		if sp := t.srv.spill; sp != nil {
			if skey == "" {
				skey = spillKey(t.layer, key)
			}
			if b, ok := sp.store.Get(skey); ok {
				return b, 0, nil
			}
		}
		cl, owner := t.srv.cluster, ""
		if peer && t.peer != 0 && cl != nil {
			if o, self := cl.Owner(h); !self {
				if b, ok := cl.Fetch(o, t.peer, []byte(key)); ok {
					return b, 0, nil
				}
				owner = o
			}
		}
		body, meta, err := compute()
		if err == nil && owner != "" {
			cl.Push(owner, t.peer, []byte(key), body)
		}
		return body, meta, err
	})
}

// open pins the CRC-verified spill entry under store key skey for streaming
// in O(chunk) memory, without promoting it; false when spill is off or the
// key misses (corruption reads as a miss).
func (t *tier) open(skey string) (*spill.Entry, bool) {
	if sp := t.srv.spill; sp != nil {
		return sp.store.OpenVerified(skey)
	}
	return nil, false
}

// tee starts copying a streamed response into spill under store key skey;
// nil when spill is off or skey is empty. Commit it only when the stream
// completes cleanly.
func (t *tier) tee(skey string) *spill.Appender {
	if sp := t.srv.spill; sp != nil && skey != "" {
		return sp.store.Begin(skey)
	}
	return nil
}

// spillStreamChunk is the read-copy granularity for serving a spilled
// body; it bounds the serve path's peak memory per request.
const spillStreamChunk = 64 << 10

// copyEntry copies a verified spill entry's body to w in spillStreamChunk
// pieces, calling flush (when set) after each. head, when set, sees the
// first chunk before it is written. The record was verified before the
// first byte, so a read error mid-copy (a hardware fault) abandons the
// copy like a snapped connection — never a bad byte.
func copyEntry(w io.Writer, flush func(), ent *spill.Entry, head func([]byte)) error {
	buf := make([]byte, spillStreamChunk)
	for off := int64(0); off < ent.BodyLen(); {
		n, err := ent.ReadBodyAt(buf, off)
		if n > 0 {
			if off == 0 && head != nil {
				head(buf[:n])
			}
			if _, werr := w.Write(buf[:n]); werr != nil {
				return werr
			}
			if flush != nil {
				flush()
			}
			off += int64(n)
		}
		if err != nil && off < ent.BodyLen() {
			return err
		}
	}
	return nil
}
