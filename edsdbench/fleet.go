package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"

	"eds/internal/cluster"
	"eds/internal/server"
)

// switchHandler lets an httptest.Server listen before the Server that
// answers on it exists: every replica's cluster config needs every base
// URL, and the Server needs its cluster.
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

// fleet is the server side of a run: one edsd handler per replica behind
// a loopback httptest.Server, wired into a cluster when there are
// several.
type fleet struct {
	handlers []http.Handler
	ts       []*httptest.Server
	urls     []string
	clusters []*cluster.Cluster
}

// startFleet brings up w.replicas replicas. fillClient carries the
// replicas' fill and health traffic (nil: a plain client).
func startFleet(w *workload, fillClient *http.Client) (*fleet, error) {
	f := &fleet{}
	sws := make([]*switchHandler, w.replicas)
	for i := range sws {
		sws[i] = &switchHandler{}
		ts := httptest.NewServer(sws[i])
		f.ts = append(f.ts, ts)
		f.urls = append(f.urls, ts.URL)
	}
	for i := range sws {
		cfg := server.Config{CacheEntries: w.cache}
		if w.replicas > 1 {
			cl, err := cluster.New(cluster.Config{Self: f.urls[i], Peers: f.urls, Client: fillClient})
			if err != nil {
				f.close()
				return nil, fmt.Errorf("cluster.New(%d): %w", i, err)
			}
			cfg.Cluster = cl
			f.clusters = append(f.clusters, cl)
		}
		h := server.New(cfg).Handler()
		f.handlers = append(f.handlers, h)
		sws[i].h.Store(&h)
	}
	// Handlers first, probes second: a probe landing before its target's
	// handler is mounted would mark a healthy peer down.
	for _, cl := range f.clusters {
		cl.Start()
	}
	return f, nil
}

// close stops the health probers and the listeners, waiting for
// in-flight requests. A nil fleet is already closed.
func (f *fleet) close() {
	if f == nil {
		return
	}
	for _, cl := range f.clusters {
		cl.Stop()
	}
	for _, ts := range f.ts {
		ts.Close()
	}
}

// statsz is the part of GET /statsz the benchmark reads.
type statsz struct {
	Queue struct {
		Depth int
	}
	EngineTime struct {
		Runs      int64
		SetupMs   float64 `json:"setup_ms"`
		RoundsMs  float64 `json:"rounds_ms"`
		OutputsMs float64 `json:"outputs_ms"`
	} `json:"engine_time"`
	Cluster *struct {
		Peers map[string]struct {
			FillsSent int64 `json:"fills_sent"`
			Fallbacks int64
		}
	}
}

// statsz reads replica i's /statsz in process, so sampling opens no
// connection beside the load's.
func (f *fleet) statsz(i int) (statsz, error) {
	rec := httptest.NewRecorder()
	f.handlers[i].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	var st statsz
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("statsz(%d): status %d", i, rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return st, fmt.Errorf("statsz(%d): %w", i, err)
	}
	return st, nil
}

// fleetStats sums the counters the per-layer metrics need over every
// replica.
type fleetStats struct {
	runs                 int64
	engineMs             float64
	fillsSent, fallbacks int64
	queueDepth           int
}

func (f *fleet) stats() (fleetStats, error) {
	var fs fleetStats
	for i := range f.handlers {
		st, err := f.statsz(i)
		if err != nil {
			return fs, err
		}
		fs.runs += st.EngineTime.Runs
		fs.engineMs += st.EngineTime.SetupMs + st.EngineTime.RoundsMs + st.EngineTime.OutputsMs
		fs.queueDepth += st.Queue.Depth
		if st.Cluster != nil {
			for _, p := range st.Cluster.Peers {
				fs.fillsSent += p.FillsSent
				fs.fallbacks += p.Fallbacks
			}
		}
	}
	return fs, nil
}

// newClient returns the load generator's HTTP client: no proxy, no
// compression, and at most conns connections per replica.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}
