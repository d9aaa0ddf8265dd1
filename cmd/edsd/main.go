// Command edsd is the edge-dominating-set daemon: a long-running HTTP
// service that executes the paper's distributed algorithms on graphs
// posted by clients, with admission control, per-request deadlines, a
// result cache, request batching, streaming responses, and graceful
// shutdown.
//
// Usage:
//
//	edsd -addr :8080
//	edsd -addr :8080 -workers 16 -queue 128 -cache 1024 -timeout 10s
//
// Run as a fleet: give every replica the same -peers list and its own
// -self. Each graph digest is then owned by exactly one replica
// (rendezvous hashing); the others fetch its result over the internal
// fill protocol instead of recomputing, and fall back to local compute
// when the owner is down or draining:
//
//	edsd -addr :8080 -self http://10.0.0.1:8080 \
//	     -peers http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080 \
//	     -batch-window 5ms
//
// Run a graph:
//
//	edsrun -graph cycle:12 ... writes the same wire format this accepts:
//	curl --data-binary @graph.txt 'localhost:8080/v1/run?alg=auto'
//	curl 'localhost:8080/v1/run?edges=1&stream=1' --data-binary @graph.txt   # NDJSON edge stream
//
// The daemon decides how many shards a run uses (sim.RunAuto: one per
// CPU on large graphs); clients cannot choose, since the shard count
// never changes a result.
//
// Operational endpoints: GET /livez (process liveness), GET /readyz
// (200 while accepting runs, 503 while draining; peers and load
// balancers key routing off this), GET /healthz (alias of /readyz),
// GET /statsz (request counts, cache hit rate, queue depth,
// per-algorithm latency histograms, batch sizes, stream bytes, per-peer
// fill counters, cumulative engine wall-time split). Every request
// carries an X-Request-ID — generated if absent, propagated on fill
// hops — and is logged as one structured log/slog line. With -pprof,
// net/http/pprof is mounted under /debug/pprof/ — off by default
// because it exposes heap contents.
//
// On SIGINT/SIGTERM the daemon flips /readyz, stops accepting new runs,
// keeps serving the in-flight ones until they finish or the drain
// deadline passes, then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"eds/internal/cluster"
	"eds/internal/graph"
	"eds/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth beyond the workers")
	cache := flag.Int("cache", 256, "result cache entries (negative disables)")
	maxBody := flag.Int64("max-body", 32<<20, "request body cap in bytes")
	maxNodes := flag.Int("max-nodes", graph.DefaultLimits.MaxNodes, "decoded graph node cap")
	maxPorts := flag.Int("max-ports", graph.DefaultLimits.MaxPorts, "decoded graph port cap")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "largest client-requestable deadline")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain deadline for in-flight runs")
	batchWindow := flag.Duration("batch-window", 0, "how long a cache-missing run waits for identical requests to coalesce onto it (0 disables)")
	self := flag.String("self", "", "this replica's advertised base URL (enables the cluster tier together with -peers)")
	peers := flag.String("peers", "", "comma-separated base URLs of every replica, -self included")
	fillTimeout := flag.Duration("fill-timeout", 15*time.Second, "per-attempt deadline for peer fill requests")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "peer readiness probe period")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	logDebug := flag.Bool("log-debug", false, "log at debug level (includes health probes)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes heap contents; keep off on untrusted networks)")
	flag.Parse()

	level := slog.LevelInfo
	if *logDebug {
		level = slog.LevelDebug
	}
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	} else {
		handler = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	}
	logger := slog.New(handler).With("component", "edsd")

	var cl *cluster.Cluster
	if *self != "" || *peers != "" {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		var err error
		cl, err = cluster.New(cluster.Config{
			Self:           *self,
			Peers:          peerList,
			HealthInterval: *healthEvery,
			FillTimeout:    *fillTimeout,
			Logger:         logger,
		})
		if err != nil {
			logger.Error("cluster configuration", "err", err)
			os.Exit(2)
		}
		cl.Start()
		logger.Info("cluster tier enabled", "self", cl.Self(), "replicas", cl.Size())
	}

	s := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxBodyBytes:   *maxBody,
		Limits:         graph.Limits{MaxNodes: *maxNodes, MaxPorts: *maxPorts},
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		CacheEntries:   *cache,
		BatchWindow:    *batchWindow,
		Cluster:        cl,
		Logger:         logger,
		EnablePprof:    *enablePprof,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Error("listen", "err", err)
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "deadline", drain.String())
	}

	// Two-phase shutdown: StartDraining rejects new runs and flips
	// /readyz so load balancers and cluster peers stop routing here;
	// Shutdown then waits for in-flight handlers (and their engine runs)
	// to finish. The health prober stops with the server.
	s.StartDraining()
	if cl != nil {
		cl.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown: in-flight runs abandoned", "err", err)
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}
