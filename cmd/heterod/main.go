// Command heterod serves the library over HTTP (see internal/api for the
// endpoint reference):
//
//	heterod -addr :8080
//	curl 'localhost:8080/v1/measure?profile=1,0.5,0.25'
//	curl -X POST localhost:8080/v1/batch -d '{"profiles":[[1,0.5],[1,0.25]]}'
//	curl -X POST localhost:8080/v1/schedule -d '{"profile":[1,0.5],"lifespan":3600}'
//	curl 'localhost:8080/v1/statz'
//
// The server is hardened for unattended operation: header/read/write/idle
// timeouts bound slow or stuck clients; a bounded admission queue
// (-max-concurrent, -queue-depth) sheds overload with 429 + Retry-After;
// every request carries a -request-timeout context deadline; handler panics
// become JSON 500s; and SIGINT/SIGTERM trigger a graceful drain before
// exit.
//
// -cache-size and -cache-bytes bound each of the three response caches
// (the canonical /v1/measure cache, its raw-query front and the /v1/batch
// body front) by entries and by resident key+body bytes. Each cache's shard
// count is fixed at startup from -cache-size: one shard per 8 entries,
// rounded down to a power of two, at most 16.
//
// -coalesce enables the cross-request admission batcher for /v1/measure:
// concurrent cache misses for *distinct* keys are merged into shared flushes
// (sealed at -coalesce-max items or after -coalesce-wait, whichever first),
// trading at most -coalesce-wait of added miss latency for a large reduction
// in per-request work under herd traffic. Off by default; off, the serving
// path is byte-for-byte the historical one.
//
// -spill-dir enables the bounded on-disk spill tier: entries evicted from
// the in-memory response caches are written to append-only segment files
// and consulted on later misses before peer fetch or re-evaluation, with
// -spill-bytes bounding total disk use (whole segments retire oldest-first)
// and -spill-index-bytes bounding the in-memory index. Streamed /v1/batch
// responses are served straight from the segment reader in O(fragment)
// memory. Off by default; off, the read path is byte-for-byte the
// historical one.
//
// -spill-write-through (with -spill-dir) turns the spill tier into a
// durability layer for restarts: memory-tier inserts are offered to the
// spill queue at admission time, not only on eviction, and shutdown adds a
// bounded best-effort flush of still-resident entries — so a warm restart
// re-serves the working set from segment recovery with zero
// re-evaluations. -spill-compact-rate caps compaction rewrite bandwidth in
// bytes/sec (0 = default 32 MiB/s, negative = unlimited) so the
// write-through firehose can't make background compaction starve the
// foreground writer.
//
// For profiling in production, -pprof-addr exposes net/http/pprof on a
// separate listener (off by default; bind it to localhost or a management
// network, never the serving address):
//
//	heterod -addr :8080 -pprof-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hetero/internal/api"
	"hetero/internal/cluster"
	"hetero/internal/spill"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "heterod:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("heterod", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	pprofAddr := fs.String("pprof-addr", "", "listen address for net/http/pprof on a separate listener (empty disables; keep it off public interfaces)")
	cacheSize := fs.Int("cache-size", api.DefaultMeasureCacheSize, "bound on the /v1/measure response cache (0 disables)")
	cacheBytes := fs.Int64("cache-bytes", api.DefaultCacheBytes, "byte budget per response cache, counting key+body per entry (0 = unlimited)")
	maxBody := fs.Int("max-body", api.DefaultMaxBody, "byte cap on any POST request body")
	streamBatchThreshold := fs.Int("stream-batch-threshold", 0, "work-units estimate (total ρ-values per batch) past which /v1/batch responses stream instead of buffering (0 = default, negative disables streaming)")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout")
	grace := fs.Duration("grace", 10*time.Second, "shutdown drain deadline after SIGINT/SIGTERM")
	maxConcurrent := fs.Int("max-concurrent", api.DefaultMaxConcurrent, "bound on simultaneously executing requests")
	queueDepth := fs.Int("queue-depth", api.DefaultQueueDepth, "admission queue beyond -max-concurrent; arrivals past it are shed with 429")
	requestTimeout := fs.Duration("request-timeout", api.DefaultRequestTimeout, "per-request context deadline (negative disables)")
	coalesce := fs.Bool("coalesce", false, "batch concurrent /v1/measure cache misses for distinct keys into shared evaluations (off: byte-for-byte historical behavior)")
	coalesceMax := fs.Int("coalesce-max", api.DefaultCoalesceMaxBatch, "seal a coalesced flush at this many items (with -coalesce)")
	coalesceWait := fs.Duration("coalesce-wait", api.DefaultCoalesceMaxWait, "seal a coalesced flush when its oldest item has waited this long (with -coalesce)")
	spillDir := fs.String("spill-dir", "", "directory for the on-disk spill tier under the response caches (empty disables)")
	spillBytes := fs.Int64("spill-bytes", spill.DefaultMaxBytes, "byte budget for spill segment files on disk; whole segments retire oldest-first past it (with -spill-dir)")
	spillIndexBytes := fs.Int64("spill-index-bytes", spill.DefaultMaxIndexBytes, "byte budget for the in-memory spill index (with -spill-dir)")
	spillWriteThrough := fs.Bool("spill-write-through", false, "offer memory-tier inserts to the spill tier at admission time and flush resident entries on shutdown, so a warm restart serves the working set without re-evaluation (with -spill-dir)")
	spillCompactRate := fs.Int64("spill-compact-rate", 0, "spill compaction rewrite budget in bytes/sec; 0 = default, negative = unlimited (with -spill-dir)")
	peers := fs.String("peers", "", "comma-separated fleet membership, host:port per replica (every replica gets the identical list); empty disables the peer cache tier")
	self := fs.String("self", "", "this replica's own address within -peers (required with -peers)")
	peerHedgeDelay := fs.Duration("peer-hedge-delay", cluster.DefaultHedgeDelay, "delay before the hedged second peer request (0 = default, negative disables hedging)")
	peerTimeout := fs.Duration("peer-timeout", cluster.DefaultTimeout, "bound on one whole peer fetch or push; expiry falls back to local evaluation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tier, err := buildClusterTier(*peers, *self, *peerHedgeDelay, *peerTimeout)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			ln.Close()
			return err
		}
		pprofSrv := &http.Server{
			Handler:           pprofHandler(),
			ReadHeaderTimeout: *readHeaderTimeout,
		}
		go func() {
			if err := pprofSrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("heterod pprof: %v", err)
			}
		}()
		log.Printf("heterod pprof listening on %s", pln.Addr())
		defer pprofSrv.Close()
	}
	budget := *cacheBytes
	if budget <= 0 {
		budget = -1 // CacheConfig: negative = unlimited, 0 = default
	}
	apiSrv := api.NewServerWithCache(api.CacheConfig{
		Entries:  *cacheSize,
		MaxBytes: budget,
		Coalesce: true,
	})
	apiSrv.MaxBody = *maxBody
	apiSrv.StreamBatchThreshold = *streamBatchThreshold
	if *spillDir != "" {
		st, err := spill.Open(spill.Config{
			Dir:                *spillDir,
			MaxBytes:           *spillBytes,
			MaxIndexBytes:      *spillIndexBytes,
			CompactBytesPerSec: *spillCompactRate,
		})
		if err != nil {
			ln.Close()
			return fmt.Errorf("opening spill tier: %w", err)
		}
		apiSrv.EnableSpillOptions(st, api.SpillOptions{WriteThrough: *spillWriteThrough})
		log.Printf("heterod spill tier: dir=%s bytes=%d index-bytes=%d write-through=%v compact-rate=%d",
			*spillDir, *spillBytes, *spillIndexBytes, *spillWriteThrough, *spillCompactRate)
	}
	if tier != nil {
		apiSrv.EnableCluster(tier)
		log.Printf("heterod fleet tier: self=%s replicas=%d hedge=%s timeout=%s",
			tier.Self(), tier.Ring().Size(), tier.HedgeDelay(), tier.Timeout())
	}
	apiSrv.Serving = api.ServingConfig{
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		RequestTimeout: *requestTimeout,
	}
	if *coalesce {
		apiSrv.EnableCoalesce(api.CoalesceConfig{
			MaxBatch: *coalesceMax,
			MaxWait:  *coalesceWait,
		})
	}
	srv := &http.Server{
		Handler:           apiSrv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Drain order: the batcher first (in-flight handlers may be waiting on
	// its flushes), then the spill tier (its evict writer drains the queued
	// entries and closes the store once nothing can evict anymore).
	return serve(ctx, ln, srv, *grace, func() {
		apiSrv.CloseCoalesce()
		apiSrv.CloseSpill()
	})
}

// buildClusterTier validates and builds the peer cache tier from the fleet
// flags; (nil, nil) when clustering is off.
func buildClusterTier(peers, self string, hedge, timeout time.Duration) (*cluster.Peers, error) {
	if peers == "" {
		if self != "" {
			return nil, errors.New("-self requires -peers")
		}
		return nil, nil
	}
	if self == "" {
		return nil, errors.New("-peers requires -self")
	}
	list := strings.Split(peers, ",")
	for i := range list {
		list[i] = strings.TrimSpace(list[i])
	}
	return cluster.New(cluster.Config{
		Self:       strings.TrimSpace(self),
		Peers:      list,
		HedgeDelay: hedge,
		Timeout:    timeout,
	})
}

// pprofHandler builds the mux served on -pprof-addr. The handlers are
// registered explicitly on a dedicated mux — importing net/http/pprof for
// its DefaultServeMux side effect would silently expose the profiler on
// the serving address too.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serve runs srv on ln until ctx is cancelled (a termination signal in
// production), then drains in-flight requests for up to grace before
// forcing connections closed. A nil return means a clean start and a clean
// stop.
//
// drain (the admission batcher's CloseCoalesce; nil when there is nothing
// to drain) runs strictly AFTER srv.Shutdown returns. Ordering matters: an
// in-flight /v1/measure request may be blocked inside the batcher waiting
// for its flush, and Shutdown waits for that request — so the batcher must
// keep flushing (its max-wait timer fires regardless) until every handler
// has been answered. Only then is it safe to stop the collector; drain then
// flushes anything still queued so no accepted item is ever dropped.
func serve(ctx context.Context, ln net.Listener, srv *http.Server, grace time.Duration, drain func()) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("heterod listening on %s", ln.Addr())
	select {
	case err := <-errc:
		// Serve never returns nil; without a shutdown this is a real error.
		return err
	case <-ctx.Done():
	}
	log.Printf("heterod draining (grace %s)", grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	if drain != nil {
		// Even when Shutdown timed out, drain: connections may be force-closed
		// but accepted batcher items still get flushed and their handlers
		// unblocked.
		drain()
	}
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}
