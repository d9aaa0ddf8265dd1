// Package server implements edsd, the HTTP serving layer over the
// simulation engines: clients POST a port-numbered graph in the
// internal/graph wire format together with an algorithm spec and
// receive the execution's statistics and solution summary as JSON.
//
// The server is built for sustained traffic, not one-shot runs:
//
//   - admission control: a bounded worker pool with a bounded wait
//     queue; requests beyond both bounds are rejected immediately with
//     429 instead of piling up;
//   - per-request deadlines: every run carries a context with a
//     deadline (client-chosen via ?timeout=, capped by the server); the
//     engines poll it at round barriers (sim.WithContext), so a
//     timed-out run stops computing and returns 504;
//   - one results table: keyed by the canonical graph digest plus the
//     resolved algorithm, it holds each answer in one entry, pending
//     (identical requests wait for its leader's one run or fill) or
//     finished (an LRU of bodies served byte-for-byte; raw-body keys are
//     aliases that take no slot). No request runs a key twice;
//   - request batching: an optional batch window delays a pending
//     entry's leader so identical requests arriving within the window
//     join the same run instead of racing it;
//   - cluster tier: with a cluster.Cluster configured, each graph digest
//     is owned by exactly one replica (rendezvous hashing); a non-owner
//     fills from the owner over POST /internal/v1/fill, once per digest,
//     and degrades to local compute when the owner is unreachable;
//   - streaming: ?edges=1&stream=1 answers in chunked NDJSON (a summary
//     line followed by one line per edge), so a million-edge dominating
//     set never materialises as one JSON body in memory;
//   - input hardening: request bodies are size-capped (413), and the
//     graph decoder enforces node/port limits (graph.ReadGraphLimits)
//     so hostile inputs cannot OOM the process — on the public endpoint
//     and the internal fill endpoint alike;
//   - observability: X-Request-ID generation/propagation with
//     structured request logging (log/slog), /livez for liveness,
//     /readyz for readiness, /statsz for request counts, cache hit
//     rate, queue depth, per-algorithm latency histograms, per-peer
//     fill counters, batch sizes, and stream bytes;
//   - graceful shutdown: StartDraining flips /readyz to 503 (telling
//     load balancers and cluster peers to stop routing here) and
//     rejects new runs while in-flight runs complete (http.Server's
//     Shutdown supplies the connection-level drain).
//
// Endpoints:
//
//	POST /v1/run?alg=S&timeout=D&edges=1&stream=1   body: graph
//	POST /internal/v1/fill?...   same contract, peer-to-peer (never re-forwards)
//	GET  /healthz   (readiness, kept for compatibility)
//	GET  /livez
//	GET  /readyz
//	GET  /statsz
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"eds/internal/cluster"
	"eds/internal/graph"
	"eds/internal/ratio"
	"eds/internal/sim"
	"eds/internal/spec"
	"eds/internal/verify"
)

// StatusClientClosedRequest is the de-facto status (nginx's 499) for a
// run abandoned because the client went away before it finished.
const StatusClientClosedRequest = 499

// Config tunes the server. Zero fields take the documented defaults.
type Config struct {
	// Workers is the number of runs executed concurrently (default:
	// GOMAXPROCS).
	Workers int
	// QueueDepth is the number of admitted requests allowed to wait for
	// a worker beyond the Workers in flight (default 64). Requests
	// beyond Workers+QueueDepth are answered 429.
	QueueDepth int
	// MaxBodyBytes caps the request body; larger bodies get 413
	// (default 32 MiB).
	MaxBodyBytes int64
	// Limits bounds the decoded graph; inputs beyond it get 413
	// (default graph.DefaultLimits).
	Limits graph.Limits
	// DefaultTimeout is the per-request deadline when the client sends
	// no ?timeout= (default 30s). MaxTimeout caps what a client may ask
	// for (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// CacheEntries is how many answers the LRU retains; raw-body aliases
	// do not count (default 256; < 0 retains none, while identical
	// in-flight requests still coalesce).
	CacheEntries int
	// BatchWindow is how long the leader of a fresh cache miss waits
	// before starting its engine run, so identical requests arriving
	// within the window coalesce onto that one run instead of finding
	// the cache still cold a moment apart. 0 (the default) disables the
	// wait; duplicates arriving while a run is in flight still coalesce
	// onto it. With a cluster configured the window batches fleet-wide:
	// every replica routes a digest's misses to the same owner, whose
	// window collects them all.
	BatchWindow time.Duration
	// Cluster, when non-nil, enables the multi-replica tier: graph
	// digests are owned by exactly one replica, non-owners fill from the
	// owner, and this server answers /internal/v1/fill for its peers.
	Cluster *cluster.Cluster
	// Logger receives one structured line per request (default:
	// discard). Health-probe endpoints log at Debug, everything else at
	// Info.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/.
	// Off by default: the profiling endpoints expose heap contents and
	// let any client start CPU profiles, so they are opt-in (edsd's
	// -pprof flag) and belong behind the operational port only.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.BatchWindow < 0 {
		c.BatchWindow = 0
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Server serves the edsd API. Create one with New and mount Handler on
// an http.Server (cmd/edsd) or an httptest.Server (tests).
type Server struct {
	cfg     Config
	sem     chan struct{} // worker slots
	queue   chan struct{} // bounded wait queue
	results *resultTable
	st      *stats
	mux     *http.ServeMux
	root    http.Handler // mux wrapped in the request-ID/logging middleware

	draining chan struct{} // closed by StartDraining

	// runEngine executes a run and reports its setup/rounds/outputs
	// wall-time split; tests substitute it to script slow or failing runs
	// deterministically.
	runEngine func(ctx context.Context, g *graph.Graph, a sim.Algorithm) (*sim.Result, sim.Timings, error)
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		sem:       make(chan struct{}, cfg.Workers),
		queue:     make(chan struct{}, cfg.QueueDepth),
		results:   newResultTable(cfg.CacheEntries),
		st:        newStats(),
		draining:  make(chan struct{}),
		runEngine: defaultRunEngine,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /internal/v1/fill", s.handleFill)
	s.mux.HandleFunc("GET /healthz", s.handleReadyz) // compatibility alias for readiness
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	if cfg.EnablePprof {
		// Explicit mounts instead of the package's init-time
		// DefaultServeMux registration: the server never serves
		// DefaultServeMux, so importing net/http/pprof alone exposes
		// nothing — the endpoints exist exactly when this branch runs.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.root = s.instrument(s.mux)
	return s
}

// Handler returns the root handler for the edsd API: the endpoint mux
// wrapped in the request-ID and logging middleware.
func (s *Server) Handler() http.Handler { return s.root }

// StartDraining puts the server into shutdown mode: /readyz (and its
// /healthz alias) turns 503 — telling load balancers and cluster peers
// to stop routing here — and new runs are rejected with 503, while runs
// already admitted keep executing. /livez stays 200: the process is
// healthy, just leaving. Safe to call more than once. Pair it with
// http.Server.Shutdown, which waits for the in-flight handlers to
// return.
func (s *Server) StartDraining() {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// defaultRunEngine runs on the shard count sim.RunAuto picks for this
// process. Clients have no say in it: the count never changes a result,
// and an unbounded one is a goroutine per node.
func defaultRunEngine(ctx context.Context, g *graph.Graph, a sim.Algorithm) (*sim.Result, sim.Timings, error) {
	var split sim.Timings
	res, err := sim.RunAuto(g, a, sim.WithContext(ctx), sim.WithTimings(&split))
	return res, split, err
}

// RunResponse is the JSON body of a successful POST /v1/run. In
// streaming mode it is the first NDJSON line, with EdgeList omitted and
// Edges announcing how many edge lines follow.
type RunResponse struct {
	Algorithm  string   `json:"algorithm"`
	N          int      `json:"n"`
	M          int      `json:"m"`
	Rounds     int      `json:"rounds"`
	Messages   int      `json:"messages"`
	Edges      int      `json:"edges"`
	Dominating bool     `json:"dominating"`
	Bound      string   `json:"bound,omitempty"`
	EdgeList   [][2]int `json:"edge_list,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	body, _ := json.Marshal(errorResponse{Error: fmt.Sprintf(format, args...)})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
	s.st.recordStatus(code)
}

// runRequest is one parsed and validated /v1/run request.
type runRequest struct {
	algSpec      string
	timeout      time.Duration
	includeEdges bool
	stream       bool
}

func (s *Server) parseRunRequest(r *http.Request) (runRequest, error) {
	q := r.URL.Query()
	req := runRequest{
		algSpec: q.Get("alg"),
		timeout: s.cfg.DefaultTimeout,
	}
	if req.algSpec == "" {
		req.algSpec = "auto"
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return req, fmt.Errorf("bad timeout %q: %v", v, err)
		}
		if d <= 0 {
			return req, fmt.Errorf("timeout %q must be positive", v)
		}
		req.timeout = d
	}
	if req.timeout > s.cfg.MaxTimeout {
		req.timeout = s.cfg.MaxTimeout
	}
	if v := q.Get("edges"); v != "" && v != "0" && v != "false" {
		req.includeEdges = true
	}
	if v := q.Get("stream"); v != "" && v != "0" && v != "false" {
		if !req.includeEdges {
			return req, errors.New("stream=1 requires edges=1 (only the edge list is worth streaming)")
		}
		req.stream = true
	}
	return req, nil
}

// The results table is keyed at two levels:
//
//	raw key       — sha256 of the request body bytes plus the literal
//	                ?alg= spec and response shape, an alias of the entry.
//	                Probed before any decoding, so a byte-identical replay
//	                is served at an allocation cost independent of graph
//	                size (the alloc regression test pins the budget).
//	canonical key — graph.Digest of the decoded graph's flat structure
//	                plus the resolved algorithm name. Two wire forms of
//	                the same graph (comments, whitespace, reordered conn
//	                lines) decode to identical port-offset and routing
//	                arrays, so they collide here as they should, as do
//	                alg=auto and its explicit resolution. The same digest
//	                is what the cluster tier rendezvous-hashes to pick the
//	                graph's owner, so cache identity and ownership can
//	                never disagree.
//
// The shard count is deliberately excluded from both keys: results do
// not depend on it, which the shard-count invariance suite in
// internal/sim/engines_test.go (TestShardCountInvariance,
// TestCrossEngineEquivalence) asserts. The same invariance lets the server
// decide the count itself (defaultRunEngine) and ignore any count a
// client sends.
func cacheKey(sum [sha256.Size]byte, algName string, includeEdges bool) string {
	return fmt.Sprintf("%x|%s|%v", sum, algName, includeEdges)
}

// acquire admits the request into the worker pool, waiting in the
// bounded queue if all workers are busy. It returns a release function,
// or an HTTP status when the request cannot run: 429 when the queue is
// full, 504/499 when the deadline expires or the client leaves while
// queued.
func (s *Server) acquire(ctx context.Context) (release func(), status int) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0
	default:
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return nil, http.StatusTooManyRequests
	}
	defer func() { <-s.queue }()
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0
	case <-ctx.Done():
		if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
			return nil, http.StatusGatewayTimeout
		}
		return nil, StatusClientClosedRequest
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.serveRun(w, r, false)
}

// handleFill is the peer-to-peer side of the cluster tier: a non-owner
// replica that missed its cache asks this replica — the digest's owner —
// for the result. The handler is deliberately the same code path as the
// public endpoint minus routing: the same body cap, the same
// graph.ReadGraphLimits, the same cache keys, the same admission queue
// and results table (so fills, local clients, and the batch window all
// coalesce onto one engine run). It never forwards: whatever this
// replica believes about ownership, a fill is answered locally, which
// makes routing loops impossible even when replicas' health views
// disagree.
func (s *Server) handleFill(w http.ResponseWriter, r *http.Request) {
	if peer := r.Header.Get("X-Eds-Peer"); peer != "" {
		s.st.recordFillServed(peer)
	}
	s.serveRun(w, r, true)
}

// serveRun is the shared request path. isFill marks a peer fill, which
// is never re-forwarded and may not stream.
func (s *Server) serveRun(w http.ResponseWriter, r *http.Request, isFill bool) {
	if s.isDraining() {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	req, err := s.parseRunRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.stream && isFill {
		// Streams are served by the replica the client is talking to
		// (their bodies are not cacheable, so ownership buys nothing);
		// peers have no business requesting one.
		s.writeError(w, http.StatusBadRequest, "stream=1 is not valid on the fill endpoint")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			return
		}
		s.writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}

	// First-level cache probe on the raw bytes: a byte-identical replay
	// is served without decoding or canonicalising anything. Streaming
	// requests bypass the cache — their value is exactly that no
	// complete body ever exists to cache.
	rawKey := cacheKey(sha256.Sum256(body), req.algSpec, req.includeEdges)
	if !req.stream {
		if cached, ok := s.results.get(rawKey); ok {
			s.st.recordCache(true)
			s.writeBody(w, http.StatusOK, "application/json", "hit", cached)
			return
		}
	}

	g, err := graph.ReadGraphLimits(bytes.NewReader(body), s.cfg.Limits)
	if err != nil {
		if errors.Is(err, graph.ErrTooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
			return
		}
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	alg, bound, err := spec.Algorithm(req.algSpec, g)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The canonical key names the answer; joining it records rawKey as
	// an alias, so a replay of these exact bytes hits at the first level.
	digest := graph.Digest(g)
	key := cacheKey(digest, alg.Name(), req.includeEdges)

	// The deadline starts before admission: time spent waiting for a
	// worker, for the batch window, for an identical in-flight run, or
	// for the owner's fill response all counts against the request's
	// budget.
	ctx, cancel := context.WithTimeout(r.Context(), req.timeout)
	defer cancel()

	if req.stream {
		s.streamRun(ctx, w, req, g, alg, bound)
		return
	}

	// A leader fills from the digest's owner if that is another replica
	// (fills never re-forward), and otherwise or on failure runs locally.
	s.serveEntry(ctx, w, key, rawKey, func(e *entry) {
		if s.cfg.Cluster != nil && !isFill {
			if owner, self := s.cfg.Cluster.Owner(digest[:]); !self {
				if s.forwardFill(ctx, w, r, owner, body, fillLimit(g), e) {
					return
				}
				s.st.recordFallback(owner)
			}
		}
		s.leadRun(ctx, w, req, g, alg, bound, e)
	})
}

// writeBody writes a buffered answer — a hit, a coalesced or miss run,
// or a relayed fill — with its X-Cache outcome, and records its status.
func (s *Server) writeBody(w http.ResponseWriter, code int, contentType, cache string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Cache", cache)
	w.WriteHeader(code)
	w.Write(body)
	s.st.recordStatus(code)
}

// fillLimit bounds the owner's answer for g: a summary allowance plus
// every edge of g as a pair at the widest node id. A larger fill body
// cannot be g's answer.
func fillLimit(g *graph.Graph) int64 {
	width := int64(len(strconv.Itoa(g.N())))
	return 4<<10 + int64(g.M())*(2*width+4) // [u,v],
}

// forwardFill resolves the pending entry e from the owner replica and
// relays its answer. A 200 is published and retained, so this replica
// serves every repeat itself (one compute, N caches); any other status
// is published privately, so followers retry. It returns false, still
// owing e's publish, when the owner was unavailable or its body
// unreadable or over limit bytes.
func (s *Server) forwardFill(ctx context.Context, w http.ResponseWriter, r *http.Request, owner string, body []byte, limit int64, e *entry) bool {
	s.st.recordFillSent(owner)
	resp, err := s.cfg.Cluster.Fill(ctx, owner, requestIDFrom(r.Context()), r.URL.RawQuery, body)
	var respBody []byte
	if err == nil {
		defer resp.Body.Close()
		respBody, err = io.ReadAll(io.LimitReader(resp.Body, limit+1))
		if err == nil && int64(len(respBody)) > limit {
			err = fmt.Errorf("fill body exceeds %d bytes", limit)
		} else if err != nil {
			err = fmt.Errorf("reading fill body: %w", err)
		}
	}
	if err != nil {
		s.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "fill fallback",
			slog.String("id", requestIDFrom(r.Context())),
			slog.String("owner", owner),
			slog.String("cause", err.Error()))
		return false
	}
	s.st.recordFillRelayed(owner)
	var res outcome
	if resp.StatusCode == http.StatusOK {
		res = outcome{code: http.StatusOK, body: respBody}
	}
	s.results.publish(e, res)
	w.Header().Set("X-Eds-Owner", owner)
	if oc := resp.Header.Get("X-Cache"); oc != "" {
		w.Header().Set("X-Fill-Cache", oc)
	}
	s.writeBody(w, resp.StatusCode, resp.Header.Get("Content-Type"), "fill", respBody)
	return true
}

// serveEntry serves a buffered request through the results table. It
// joins key with rawKey as an alias: a finished entry is a hit, a pending
// one is waited on and its outcome shared (coalesced), and a missing one
// makes the request the leader, whom lead resolves. Followers whose
// leader ended privately (canceled, timed out, not admitted, non-200
// fill) join again, taking the lead themselves if nobody else has.
func (s *Server) serveEntry(ctx context.Context, w http.ResponseWriter, key, rawKey string, lead func(*entry)) {
	for first := true; ; first = false {
		e, r := s.results.join(key, rawKey)
		if first {
			s.st.recordCache(r == finished)
		}
		switch r {
		case leader:
			lead(e)
			return
		case finished:
			s.writeBody(w, http.StatusOK, "application/json", "hit", e.res.body)
			return
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
				s.writeError(w, http.StatusGatewayTimeout, "request timed out waiting for an identical in-flight run")
				return
			}
			s.writeError(w, StatusClientClosedRequest, "client canceled while waiting for an identical in-flight run")
			return
		}
		if e.res.code == 0 {
			continue
		}
		s.st.recordCoalesced()
		if e.res.code == http.StatusOK {
			s.writeBody(w, http.StatusOK, "application/json", "coalesced", e.res.body)
			return
		}
		s.writeError(w, e.res.code, "%s", e.res.msg)
		return
	}
}

// leadRun executes a run as the leader of the pending entry e: it owes
// exactly one publish on every exit path. Outcomes that depend only on
// the graph and algorithm (success, round limit, invalid output) are
// published for the followers; outcomes private to this request's
// budget (deadline, client gone, admission failure) publish a retry
// marker instead.
func (s *Server) leadRun(ctx context.Context, w http.ResponseWriter, req runRequest, g *graph.Graph, alg sim.Algorithm, bound *ratio.R, e *entry) {
	// The batch window: a fresh leader waits briefly before running, so
	// identical requests that are about to arrive — from local clients
	// or, via owner routing, from every replica in the fleet — join this
	// entry instead of finding a cold cache a moment apart. The wait
	// spends the leader's own deadline budget; expiry is a private
	// outcome, so waiting followers retry with their own budgets.
	if s.cfg.BatchWindow > 0 {
		t := time.NewTimer(s.cfg.BatchWindow)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			s.results.publish(e, outcome{})
			if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
				s.writeError(w, http.StatusGatewayTimeout, "request timed out in the batch window")
				return
			}
			s.writeError(w, StatusClientClosedRequest, "client canceled in the batch window")
			return
		}
	}

	code, msg := s.execute(ctx, w, req, g, alg, func(res *sim.Result) error {
		respBody, err := buildResponse(g, alg.Name(), bound, res, req.includeEdges)
		if err != nil {
			return err
		}
		// Once published, the entry's size — leader plus every coalesced
		// follower and fill — is final: that is this run's batch yield.
		s.st.recordBatch(s.results.publish(e, outcome{code: http.StatusOK, body: respBody}))
		s.writeBody(w, http.StatusOK, "application/json", "miss", respBody)
		return nil
	})
	if code == 0 {
		return
	}
	// Only a failure that is deterministic for this graph and algorithm
	// is shared; the rest were private to this request's budget, so the
	// followers retry with their own.
	var shared outcome
	if code == http.StatusInternalServerError {
		shared = outcome{code: code, msg: msg}
	}
	s.results.publish(e, shared)
}

// execute is the one run path behind leadRun and streamRun. It admits
// the request into the worker pool, runs the engine, records the run's
// latency and phase split, and calls respond with the result while the
// worker slot is still held. A failure is answered here, as a JSON error
// with the same status and message on both paths, and returned (code 0
// means success): 429 when the queue is full, 504 or 499 when the
// deadline passes or the client leaves (queued or mid-run), and 500 when
// the run fails deterministically (round limit, invalid output) or
// respond returns an error before writing.
func (s *Server) execute(ctx context.Context, w http.ResponseWriter, req runRequest, g *graph.Graph, alg sim.Algorithm, respond func(*sim.Result) error) (code int, msg string) {
	fail := func(code int, format string, args ...any) (int, string) {
		msg := fmt.Sprintf(format, args...)
		s.writeError(w, code, "%s", msg)
		return code, msg
	}
	release, code := s.acquire(ctx)
	if code != 0 {
		return fail(code, "request not admitted (%d workers busy, queue of %d full or deadline passed)",
			s.cfg.Workers, s.cfg.QueueDepth)
	}
	defer release()

	start := time.Now()
	res, split, err := s.runEngine(ctx, g, alg)
	switch {
	case errors.Is(err, sim.ErrCanceled) && errors.Is(err, context.DeadlineExceeded):
		return fail(http.StatusGatewayTimeout, "run exceeded its %s deadline", req.timeout)
	case errors.Is(err, sim.ErrCanceled):
		return fail(StatusClientClosedRequest, "client canceled the run")
	case err != nil:
		return fail(http.StatusInternalServerError, "%s", err)
	}
	s.st.recordLatency(alg.Name(), time.Since(start))
	s.st.recordPhases(split)
	if err := respond(res); err != nil {
		return fail(http.StatusInternalServerError, "%s", err)
	}
	return 0, ""
}

// summarize collects the run's edge set and the summary both response
// shapes share: the buffered body adds the edge list to it, the NDJSON
// stream follows it with one line per edge.
func summarize(g *graph.Graph, algName string, bound *ratio.R, res *sim.Result) (RunResponse, *graph.EdgeSet, error) {
	d, err := sim.EdgeSet(g, res.Outputs)
	if err != nil {
		return RunResponse{}, nil, fmt.Errorf("collecting edge set: %w", err)
	}
	resp := RunResponse{
		Algorithm:  algName,
		N:          g.N(),
		M:          g.M(),
		Rounds:     res.Rounds,
		Messages:   res.Messages,
		Edges:      d.Count(),
		Dominating: verify.IsEdgeDominatingSet(g, d),
	}
	if bound != nil {
		resp.Bound = bound.String()
	}
	return resp, d, nil
}

func buildResponse(g *graph.Graph, algName string, bound *ratio.R, res *sim.Result, includeEdges bool) ([]byte, error) {
	resp, d, err := summarize(g, algName, bound, res)
	if err != nil {
		return nil, err
	}
	if includeEdges {
		resp.EdgeList = make([][2]int, 0, d.Count())
		for _, idx := range d.Indices() {
			e := g.Edge(idx)
			resp.EdgeList = append(resp.EdgeList, [2]int{e.U(), e.V()})
		}
	}
	return marshalLine(resp)
}

// marshalLine renders resp as one newline-terminated JSON line.
func marshalLine(resp RunResponse) ([]byte, error) {
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// handleLivez is the liveness probe: 200 for as long as the process can
// serve HTTP at all, draining included. Restart-deciders watch this;
// routing-deciders watch /readyz.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte("ok\n"))
}

// handleReadyz is the readiness probe: 200 while the server accepts new
// runs, 503 once StartDraining flipped it. Load balancers and cluster
// peers (the health prober in internal/cluster) key routing off this,
// so a draining replica stops receiving fills before it starts
// rejecting them.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// statszResponse is the JSON body of GET /statsz.
type statszResponse struct {
	Requests struct {
		Total    int64            `json:"total"`
		ByStatus map[string]int64 `json:"by_status"`
	} `json:"requests"`
	Cache struct {
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		HitRate   float64 `json:"hit_rate"`
		Size      int     `json:"size"`
		Coalesced int64   `json:"coalesced"`
	} `json:"cache"`
	Queue struct {
		Workers  int `json:"workers"`
		InFlight int `json:"in_flight"`
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
	} `json:"queue"`
	LatencyMs map[string]histogramSnapshot `json:"latency_ms"`
	// EngineTime is the cumulative wall-time split of every completed
	// run, as reported by sim.WithTimings: setup (node construction and
	// state initialisation), the round loop, and output collection. The
	// ratio tells an operator whether the serving mix is dominated by run
	// construction or by protocol rounds; Runs counts this replica's
	// engine executions, which the cluster e2e suite sums fleet-wide to
	// prove each graph ran exactly once.
	EngineTime struct {
		Runs      int64   `json:"runs"`
		SetupMs   float64 `json:"setup_ms"`
		RoundsMs  float64 `json:"rounds_ms"`
		OutputsMs float64 `json:"outputs_ms"`
	} `json:"engine_time"`
	// Batch distributes how many requests each engine run served; with
	// a batch window (and, fleet-wide, owner routing) the mass moves off
	// the size-1 bucket.
	Batch struct {
		WindowMs float64           `json:"window_ms"`
		Sizes    histogramSnapshot `json:"sizes"`
	} `json:"batch"`
	// Stream counts chunked NDJSON responses and their body bytes.
	Stream struct {
		Responses int64             `json:"responses"`
		Bytes     int64             `json:"bytes"`
		Sizes     histogramSnapshot `json:"sizes"`
	} `json:"stream"`
	// Cluster reports the fleet view when the cluster tier is on: this
	// replica's identity plus, per peer, health and fill traffic in both
	// roles.
	Cluster  *clusterStatsz `json:"cluster,omitempty"`
	Draining bool           `json:"draining"`
}

type clusterStatsz struct {
	Self  string                    `json:"self"`
	Peers map[string]peerStatszView `json:"peers"`
}

type peerStatszView struct {
	Ready   bool   `json:"ready"`
	LastErr string `json:"last_err,omitempty"`
	peerCounters
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	resp := s.st.snapshot()
	resp.Cache.Size = s.results.len()
	resp.Queue.Workers = s.cfg.Workers
	resp.Queue.InFlight = len(s.sem)
	resp.Queue.Depth = len(s.queue)
	resp.Queue.Capacity = s.cfg.QueueDepth
	resp.Batch.WindowMs = float64(s.cfg.BatchWindow) / float64(time.Millisecond)
	if c := s.cfg.Cluster; c != nil {
		// Counters can exist for URLs the cluster no longer reports (e.g.
		// a fill served for a peer before its first probe); they stay
		// visible as not ready.
		resp.Cluster.Self = c.Self()
		for _, ps := range c.Snapshot() {
			v := resp.Cluster.Peers[ps.URL]
			v.Ready, v.LastErr = ps.Ready, ps.LastErr
			resp.Cluster.Peers[ps.URL] = v
		}
	} else {
		resp.Cluster = nil
	}
	resp.Draining = s.isDraining()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
