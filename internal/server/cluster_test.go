// Multi-replica end-to-end suite for the cluster tier, driven through
// real HTTP stacks: three edsd replicas with static membership route
// cache misses to the digest's owner, fill from its cache, degrade to
// local compute when the owner dies or drains, and coalesce identical
// requests fleet-wide through the owner's batch window. Run under -race
// in CI (the cluster-e2e job).
//
// Lives in package server (like server_test.go) to reach the stats
// internals and the runEngine seam.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eds/internal/cluster"
	"eds/internal/gen"
	"eds/internal/graph"
)

// switchHandler lets an httptest.Server exist before the Server that
// will answer on it: the fleet's base URLs must be known to build every
// replica's cluster config, and the cluster must exist to build the
// Server.
type switchHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "not ready", http.StatusServiceUnavailable)
}

type fleet struct {
	servers  []*Server
	ts       []*httptest.Server
	urls     []string
	clusters []*cluster.Cluster
}

// startFleet brings up n replicas that all know each other. mutate (may
// be nil) adjusts each replica's server and cluster config before
// construction.
func startFleet(t *testing.T, n int, mutate func(i int, cfg *Config, ccfg *cluster.Config)) *fleet {
	t.Helper()
	f := &fleet{}
	sws := make([]*switchHandler, n)
	for i := 0; i < n; i++ {
		sw := &switchHandler{}
		ts := httptest.NewServer(sw)
		t.Cleanup(ts.Close)
		sws[i] = sw
		f.ts = append(f.ts, ts)
		f.urls = append(f.urls, ts.URL)
	}
	for i := 0; i < n; i++ {
		cfg := Config{Workers: 4}
		ccfg := cluster.Config{
			Self:           f.urls[i],
			Peers:          f.urls,
			HealthInterval: 25 * time.Millisecond,
			Backoff:        time.Millisecond,
			MaxRetries:     1,
		}
		if mutate != nil {
			mutate(i, &cfg, &ccfg)
		}
		cl, err := cluster.New(ccfg)
		if err != nil {
			t.Fatalf("cluster.New(%d): %v", i, err)
		}
		cfg.Cluster = cl
		srv := New(cfg)
		f.servers = append(f.servers, srv)
		f.clusters = append(f.clusters, cl)
		h := srv.Handler()
		sws[i].h.Store(&h)
	}
	// Handlers first, probes second: a probe that lands before its
	// target's handler is mounted would mark a healthy peer down.
	for _, cl := range f.clusters {
		cl.Start()
		t.Cleanup(cl.Stop)
	}
	return f
}

// ownerIndex returns which replica owns g's digest over the full
// membership.
func (f *fleet) ownerIndex(t *testing.T, g *graph.Graph) int {
	t.Helper()
	d := graph.Digest(g)
	owner := f.clusters[0].OwnerAmongAll(d[:])
	for i, u := range f.urls {
		if u == owner {
			return i
		}
	}
	t.Fatalf("owner %s is not a fleet member", owner)
	return -1
}

// graphOwnedBy searches the cycle family for a graph owned by replica
// want, so tests can address a known owner and known non-owners.
func (f *fleet) graphOwnedBy(t *testing.T, want int) *graph.Graph {
	t.Helper()
	for k := 8; k < 200; k++ {
		g := gen.Cycle(k)
		if f.ownerIndex(t, g) == want {
			return g
		}
	}
	t.Fatalf("no cycle graph owned by replica %d in 192 tries", want)
	return nil
}

func (f *fleet) statsz(t *testing.T, i int) statszResponse {
	t.Helper()
	resp, err := f.ts[i].Client().Get(f.urls[i] + "/statsz")
	if err != nil {
		t.Fatalf("statsz(%d): %v", i, err)
	}
	defer resp.Body.Close()
	var st statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding statsz(%d): %v", i, err)
	}
	return st
}

// totalRuns sums the fleet's engine-run counters — the "computed
// exactly once" witness. Dead replicas (closed test servers) are
// skipped: their runs died with them.
func (f *fleet) totalRuns(t *testing.T) int64 {
	t.Helper()
	var sum int64
	for i := range f.servers {
		sum += f.servers[i].st.snapshot().runs
	}
	return sum
}

// TestClusterOwnerRouting is the acceptance path: a graph computed once
// on its owner is served from cache by every replica — the owner from
// its own cache, non-owners via one fill each that then seeds their
// local cache — with zero extra engine runs fleet-wide.
func TestClusterOwnerRouting(t *testing.T) {
	f := startFleet(t, 3, nil)
	g := f.graphOwnedBy(t, 0)
	body := graphBytes(t, g)

	// First request lands on the owner: a plain local miss + run.
	resp, out := postRun(t, f.ts[0].Client(), f.urls[0], "?alg=auto", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("owner: status %d, X-Cache %q (body %s)", resp.StatusCode, resp.Header.Get("X-Cache"), out)
	}
	if sum := decodeRun(t, out); !sum.Dominating {
		t.Fatalf("owner run is not dominating: %+v", sum)
	}

	// Every non-owner misses locally, fills from the owner's cache, and
	// returns byte-identical results.
	for i := 1; i < 3; i++ {
		resp, got := postRun(t, f.ts[i].Client(), f.urls[i], "?alg=auto", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica %d: status %d (body %s)", i, resp.StatusCode, got)
		}
		if c := resp.Header.Get("X-Cache"); c != "fill" {
			t.Errorf("replica %d: X-Cache = %q, want fill", i, c)
		}
		if oc := resp.Header.Get("X-Fill-Cache"); oc != "hit" {
			t.Errorf("replica %d: X-Fill-Cache = %q, want hit (the owner had it cached)", i, oc)
		}
		if own := resp.Header.Get("X-Eds-Owner"); own != f.urls[0] {
			t.Errorf("replica %d: X-Eds-Owner = %q, want %q", i, own, f.urls[0])
		}
		if !bytes.Equal(out, got) {
			t.Errorf("replica %d returned different bytes than the owner", i)
		}
	}

	// The fill seeded each non-owner's local cache: repeats are local
	// hits, no more peer traffic.
	for i := 1; i < 3; i++ {
		resp, _ := postRun(t, f.ts[i].Client(), f.urls[i], "?alg=auto", body)
		if c := resp.Header.Get("X-Cache"); c != "hit" {
			t.Errorf("replica %d repeat: X-Cache = %q, want local hit", i, c)
		}
	}

	// Exactly one engine run happened anywhere, and it happened on the
	// owner (statsz is the witness, as the acceptance criteria demand).
	if runs := f.totalRuns(t); runs != 1 {
		t.Errorf("fleet-wide engine runs = %d, want 1", runs)
	}
	if st := f.statsz(t, 0); st.EngineTime.Runs != 1 {
		t.Errorf("owner engine runs = %d, want 1", st.EngineTime.Runs)
	}

	// Per-peer counters: the owner served one fill for each non-owner;
	// each non-owner sent and relayed exactly one fill to the owner.
	ownerStats := f.statsz(t, 0)
	if ownerStats.Cluster == nil {
		t.Fatal("owner statsz has no cluster section")
	}
	for i := 1; i < 3; i++ {
		pc, ok := ownerStats.Cluster.Peers[f.urls[i]]
		if !ok || pc.FillsServed != 1 {
			t.Errorf("owner fills_served for replica %d = %+v, want 1", i, pc)
		}
		st := f.statsz(t, i)
		if st.Cluster == nil {
			t.Fatalf("replica %d statsz has no cluster section", i)
		}
		oc := st.Cluster.Peers[f.urls[0]]
		if oc.FillsSent != 1 || oc.FillsRelayed != 1 || oc.Fallbacks != 0 {
			t.Errorf("replica %d counters to owner = %+v, want sent=1 relayed=1 fallbacks=0", i, oc)
		}
	}
}

// probeDone marks each /readyz probe done once its response has arrived,
// which settles the probe's outcome.
type probeDone struct{ wg *sync.WaitGroup }

func (p probeDone) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if r.URL.Path == "/readyz" {
		p.wg.Done()
	}
	return resp, err
}

// TestClusterOwnerDownFallback kills the owner and checks the passive
// degradation path: fills fail, requests fall back to local compute,
// and nothing surfaces to the client as an error.
func TestClusterOwnerDownFallback(t *testing.T) {
	// A health loop probes every peer once when it starts. Replicas 0
	// and 1 must finish those probes while the owner is alive, or a
	// probe, not a failed fill, marks the owner down.
	var probed sync.WaitGroup
	probed.Add(2 * 2)
	f := startFleet(t, 3, func(i int, cfg *Config, ccfg *cluster.Config) {
		// No further active probes: this test exercises the passive
		// mark-down on fill failure, not the health loop.
		ccfg.HealthInterval = time.Hour
		if i < 2 {
			ccfg.Client = &http.Client{Transport: probeDone{&probed}}
		}
	})
	g := f.graphOwnedBy(t, 2)
	body := graphBytes(t, g)

	probed.Wait()
	f.ts[2].Close() // the owner dies

	for i := 0; i < 2; i++ {
		resp, out := postRun(t, f.ts[i].Client(), f.urls[i], "?alg=auto", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica %d with dead owner: status %d (body %s)", i, resp.StatusCode, out)
		}
	}
	// Replica 0 tried the owner first, failed, and fell back; its
	// counters prove the path taken.
	st := f.statsz(t, 0)
	oc := st.Cluster.Peers[f.urls[2]]
	if oc.FillsSent != 1 || oc.Fallbacks != 1 || oc.FillsRelayed != 0 {
		t.Errorf("replica 0 counters to dead owner = %+v, want sent=1 fallbacks=1 relayed=0", oc)
	}
	if st.Cluster.Peers[f.urls[2]].Ready {
		t.Error("dead owner still shows ready in replica 0's statsz after a failed fill")
	}
	// The dead peer was marked down passively, so repeats skip it
	// entirely: replica 0 now owns the digest among the survivors or
	// fills from replica 1 — either way, it serves from its local cache
	// seeded by the fallback run.
	resp, _ := postRun(t, f.ts[0].Client(), f.urls[0], "?alg=auto", body)
	if c := resp.Header.Get("X-Cache"); c != "hit" {
		t.Errorf("replica 0 repeat after fallback: X-Cache = %q, want hit", c)
	}
}

// TestClusterDrainAwareRouting drains the owner and checks the active
// path: peers' health probes see /readyz flip, ownership moves to a
// surviving replica, and the draining replica finishes with zero new
// engine runs and zero fills routed at it.
func TestClusterDrainAwareRouting(t *testing.T) {
	f := startFleet(t, 3, nil)
	g := f.graphOwnedBy(t, 1)
	body := graphBytes(t, g)

	f.servers[1].StartDraining()
	// Both survivors' probes must notice before we route.
	for _, i := range []int{0, 2} {
		cl := f.clusters[i]
		waitFor(t, func() bool {
			for _, ps := range cl.Snapshot() {
				if ps.URL == f.urls[1] {
					return !ps.Ready
				}
			}
			return false
		})
	}

	resp, out := postRun(t, f.ts[0].Client(), f.urls[0], "?alg=auto", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request during owner drain: status %d (body %s)", resp.StatusCode, out)
	}
	drainSt := f.statsz(t, 1)
	if drainSt.EngineTime.Runs != 0 {
		t.Errorf("draining replica ran %d engines, want 0", drainSt.EngineTime.Runs)
	}
	if pc := drainSt.Cluster.Peers[f.urls[0]]; pc.FillsServed != 0 {
		t.Errorf("draining replica served %d fills, want 0 (routing must avoid it)", pc.FillsServed)
	}
	if st := f.statsz(t, 0); st.Cluster.Peers[f.urls[1]].Fallbacks != 0 {
		t.Error("replica 0 fell back instead of routing around the draining owner a priori")
	}
}

// TestClusterFleetWideBatching fires identical concurrent requests at
// every replica inside one batch window: owner routing funnels them all
// onto the owner, whose windowed leader serves the whole fleet with
// exactly one engine run.
func TestClusterFleetWideBatching(t *testing.T) {
	f := startFleet(t, 3, func(i int, cfg *Config, ccfg *cluster.Config) {
		cfg.BatchWindow = 250 * time.Millisecond
	})
	g := f.graphOwnedBy(t, 0)
	body := graphBytes(t, g)

	const perReplica = 4
	var wg sync.WaitGroup
	errs := make(chan string, 3*perReplica)
	for i := 0; i < 3; i++ {
		for j := 0; j < perReplica; j++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, out := postRun(t, f.ts[i].Client(), f.urls[i], "?alg=auto&timeout=30s", body)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("replica %d: status %d (body %s)", i, resp.StatusCode, out)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	if runs := f.totalRuns(t); runs != 1 {
		t.Errorf("fleet-wide engine runs = %d for %d identical concurrent requests, want exactly 1", runs, 3*perReplica)
	}
	st := f.statsz(t, 0)
	if st.Batch.Sizes.Count != 1 {
		t.Errorf("owner batch runs = %d, want 1", st.Batch.Sizes.Count)
	}
	if st.Batch.Sizes.Max < 2 {
		t.Errorf("owner batch size = %d, want >= 2 (the window must have coalesced concurrent requests)", st.Batch.Sizes.Max)
	}
}

// TestClusterFillEndpointHardening pins the CONTRIBUTING invariant: the
// internal fill endpoint enforces the same caps and discipline as the
// public one — a peer must never be a way around ReadGraphLimits, the
// body cap, draining, or the stream rules.
func TestClusterFillEndpointHardening(t *testing.T) {
	s := New(Config{Limits: graph.Limits{MaxNodes: 100, MaxPorts: 400}, MaxBodyBytes: 2048})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	fill := func(query, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/internal/v1/fill"+query, "text/plain", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("POST fill: %v", err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	t.Run("graph over the node cap", func(t *testing.T) {
		resp, body := fill("", "nodes 101\n")
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status = %d, want 413 (body %s)", resp.StatusCode, body)
		}
	})
	t.Run("body over the byte cap", func(t *testing.T) {
		resp, _ := fill("", string(bytes.Repeat([]byte("# pad\n"), 1000)))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status = %d, want 413", resp.StatusCode)
		}
	})
	t.Run("malformed graph", func(t *testing.T) {
		resp, _ := fill("", "nodes zz\n")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("stream rejected", func(t *testing.T) {
		resp, _ := fill("?edges=1&stream=1", "nodes 4\nconn 0 1 1 1\nconn 1 2 2 1\nconn 2 2 3 1\nconn 3 2 0 2\n")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400 (streams are not fillable)", resp.StatusCode)
		}
	})
	t.Run("draining answers 503", func(t *testing.T) {
		s.StartDraining()
		resp, _ := fill("", "nodes 4\nconn 0 1 1 1\nconn 1 2 2 1\nconn 2 2 3 1\nconn 3 2 0 2\n")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("status = %d, want 503", resp.StatusCode)
		}
	})
	t.Run("fill hit is served from cache and works end to end", func(t *testing.T) {
		s2 := New(Config{})
		ts2 := httptest.NewServer(s2.Handler())
		defer ts2.Close()
		body := graphBytes(t, gen.Cycle(10))
		resp, err := ts2.Client().Post(ts2.URL+"/internal/v1/fill?alg=auto", "text/plain", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Errorf("first fill: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		resp2, err := ts2.Client().Post(ts2.URL+"/internal/v1/fill?alg=auto", "text/plain", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.Header.Get("X-Cache") != "hit" {
			t.Errorf("second fill: X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
		}
	})
}

// logCapture is a slog.Handler that records every line, so tests can
// follow a request ID across replicas.
type logCapture struct {
	mu   sync.Mutex
	recs []map[string]string
}

func (l *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (l *logCapture) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *logCapture) WithGroup(string) slog.Handler            { return l }
func (l *logCapture) Handle(_ context.Context, r slog.Record) error {
	rec := map[string]string{"msg": r.Message}
	r.Attrs(func(a slog.Attr) bool {
		rec[a.Key] = a.Value.String()
		return true
	})
	l.mu.Lock()
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
	return nil
}

func (l *logCapture) find(match func(map[string]string) bool) map[string]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.recs {
		if match(r) {
			return r
		}
	}
	return nil
}

// TestClusterRequestIDPropagation follows one request ID from the
// client, through a non-owner, across the fill hop, into the owner's
// request log.
func TestClusterRequestIDPropagation(t *testing.T) {
	captures := make([]*logCapture, 3)
	f := startFleet(t, 3, func(i int, cfg *Config, ccfg *cluster.Config) {
		captures[i] = &logCapture{}
		cfg.Logger = slog.New(captures[i])
	})
	g := f.graphOwnedBy(t, 1)
	body := graphBytes(t, g)

	const id = "trace-me-42"
	req, err := http.NewRequest(http.MethodPost, f.urls[0]+"/v1/run?alg=auto", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", id)
	resp, err := f.ts[0].Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != id {
		t.Errorf("response X-Request-ID = %q, want the client's %q echoed", got, id)
	}
	if resp.Header.Get("X-Cache") != "fill" {
		t.Fatalf("X-Cache = %q, want fill (replica 0 does not own this digest)", resp.Header.Get("X-Cache"))
	}

	// The non-owner logged the public request under the client's ID...
	if captures[0].find(func(r map[string]string) bool {
		return r["msg"] == "request" && r["id"] == id && r["path"] == "/v1/run"
	}) == nil {
		t.Error("replica 0 request log has no line for the client's request ID")
	}
	// ...and the owner logged the fill hop under the same ID, attributed
	// to the requesting peer.
	if captures[1].find(func(r map[string]string) bool {
		return r["msg"] == "request" && r["id"] == id && r["path"] == "/internal/v1/fill" && r["fill_for"] == f.urls[0]
	}) == nil {
		t.Errorf("owner request log has no fill line for ID %q from peer %q", id, f.urls[0])
	}
}

// TestRequestIDGenerated checks the no-header path: the server mints an
// ID and echoes it.
func TestRequestIDGenerated(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := postRun(t, ts.Client(), ts.URL, "", graphBytes(t, gen.Cycle(8)))
	id := resp.Header.Get("X-Request-ID")
	if len(id) != 16 {
		t.Errorf("generated X-Request-ID = %q, want 16 hex characters", id)
	}
}

// TestLivezReadyzSplit pins the probe split: draining flips readiness
// (and its /healthz alias) but never liveness.
func TestLivezReadyzSplit(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(path string) int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{"/livez", "/readyz", "/healthz"} {
		if code := get(path); code != http.StatusOK {
			t.Errorf("GET %s before drain = %d, want 200", path, code)
		}
	}
	s.StartDraining()
	if code := get("/livez"); code != http.StatusOK {
		t.Errorf("GET /livez during drain = %d, want 200 (the process is alive, just leaving)", code)
	}
	for _, path := range []string{"/readyz", "/healthz"} {
		if code := get(path); code != http.StatusServiceUnavailable {
			t.Errorf("GET %s during drain = %d, want 503", path, code)
		}
	}
}
