package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eds/internal/graph"
	"eds/internal/ratio"
	"eds/internal/server"
	"eds/internal/sim"
	"eds/internal/spec"
	"eds/internal/verify"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is 0 for a request's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

// tracer holds a traced run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
	// handlers maps a request ID to its open server.handler span, so a
	// fill the handler sends for that request is parented under it.
	handlers map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), handlers: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do records fn as a span named name under parent; fn receives the
// span's ID and returns its note.
func (t *tracer) do(req string, parent int64, name string, fn func(id int64) string) {
	id := t.next.Add(1)
	start := t.now()
	note := fn(id)
	t.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: t.now(), Note: note})
}

// fillTransport records a cluster.fill span around every fill a replica
// sends on behalf of a traced request, from the request until the owner's
// body is closed.
type fillTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (ft *fillTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	req := r.Header.Get("X-Request-ID")
	ft.t.mu.Lock()
	parent, traced := ft.t.handlers[req]
	ft.t.mu.Unlock()
	if !traced || !strings.HasSuffix(r.URL.Path, "/internal/v1/fill") {
		return ft.base.RoundTrip(r)
	}
	s := span{ID: ft.t.next.Add(1), Parent: parent, Req: req, Name: "cluster.fill", Start: ft.t.now()}
	resp, err := ft.base.RoundTrip(r)
	if err != nil {
		s.End, s.Note = ft.t.now(), "error"
		ft.t.add(s)
		return nil, err
	}
	s.Note = resp.Header.Get("X-Cache")
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		s.End = ft.t.now()
		ft.t.add(s)
	}}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// tracedRun replays requests with a span around each layer call.
type tracedRun struct {
	t   *tracer
	ins []*input
	f   *fleet // non-nil: serve through the in-process handlers first

	mu          sync.Mutex
	nsPortRound []float64
}

// send is the traced sendFunc. Without a fleet it calls the layers
// directly in serveRun's stage order. With one it serves the request
// through the replica's handler in process and, unless the handler hit
// its cache, also times the stages that request needed.
func (tr *tracedRun) send(id string, r request) (xc string, body []byte, err error) {
	tr.t.do(id, 0, "request", func(root int64) string {
		if tr.f == nil {
			xc = "traced"
			body, err = tr.stages(id, root, r)
			return xc
		}
		xc, body, err = tr.handler(id, root, r)
		if err == nil && xc != "hit" {
			if _, err = tr.stages(id, root, r); err != nil {
				err = fmt.Errorf("traced stages: %w", err)
			}
		}
		return xc
	})
	return xc, body, err
}

// handler serves r through its replica's Handler().ServeHTTP.
func (tr *tracedRun) handler(id string, root int64, r request) (xc string, body []byte, err error) {
	tr.t.do(id, root, "server.handler", func(self int64) string {
		tr.t.mu.Lock()
		tr.t.handlers[id] = self
		tr.t.mu.Unlock()
		req := httptest.NewRequest(http.MethodPost, runPath(r.edges), bytes.NewReader(r.body(tr.ins[r.graph])))
		req.Header.Set("X-Request-ID", id)
		rec := httptest.NewRecorder()
		tr.f.handlers[r.replica].ServeHTTP(rec, req)
		tr.t.mu.Lock()
		delete(tr.t.handlers, id)
		tr.t.mu.Unlock()
		xc = rec.Header().Get("X-Cache")
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			return xc
		}
		body = rec.Body.Bytes()
		return xc
	})
	return xc, body, err
}

// stages calls each layer serveRun calls on a cache miss, in its order,
// and returns the response body those calls build.
func (tr *tracedRun) stages(id string, root int64, r request) ([]byte, error) {
	in := tr.ins[r.graph]
	raw := r.body(in)
	var (
		g     *graph.Graph
		alg   sim.Algorithm
		bound *ratio.R
		res   *sim.Result
		body  []byte
		err   error
	)
	var rawKey [sha256.Size]byte
	tr.t.do(id, root, "server.rawkey", func(int64) string {
		rawKey = sha256.Sum256(raw)
		return ""
	})
	if rawKey == ([sha256.Size]byte{}) {
		return nil, fmt.Errorf("graph %d: zero raw key", r.graph)
	}
	tr.t.do(id, root, "graph.decode", func(int64) string {
		g, err = graph.ReadGraphLimits(bytes.NewReader(raw), graph.Limits{})
		return ""
	})
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	tr.t.do(id, root, "spec.resolve", func(int64) string {
		alg, bound, err = spec.Algorithm("auto", g)
		return ""
	})
	if err != nil {
		return nil, fmt.Errorf("resolve: %w", err)
	}
	var digest [graph.DigestSize]byte
	tr.t.do(id, root, "graph.digest", func(int64) string {
		digest = graph.Digest(g)
		return ""
	})
	if digest != in.digest {
		return nil, fmt.Errorf("digest of graph %d differs from its generated graph's", r.graph)
	}
	tr.t.do(id, root, "sim.run", func(self int64) string {
		var tm sim.Timings
		start := tr.t.now()
		res, err = sim.RunAuto(g, alg, sim.WithTimings(&tm))
		// The engine reports its phase split; lay the phases end to end
		// from the run's start as its children.
		at := start
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"sim.setup", tm.Setup}, {"sim.rounds", tm.Rounds}, {"sim.outputs", tm.Outputs}} {
			tr.t.add(span{ID: tr.t.next.Add(1), Parent: self, Req: id, Name: ph.name, Start: at, End: at + int64(ph.d)})
			at += int64(ph.d)
		}
		if err == nil && res.Rounds > 0 && g.NumPorts() > 0 {
			tr.mu.Lock()
			tr.nsPortRound = append(tr.nsPortRound, float64(tm.Rounds)/float64(g.NumPorts()*res.Rounds))
			tr.mu.Unlock()
		}
		return sim.EngineChoice(g.N(), g.NumPorts(), runtime.GOMAXPROCS(0))
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	tr.t.do(id, root, "server.response", func(self int64) string {
		var d *graph.EdgeSet
		if d, err = sim.EdgeSet(g, res.Outputs); err != nil {
			return ""
		}
		resp := server.RunResponse{
			Algorithm: alg.Name(), N: g.N(), M: g.M(), Rounds: res.Rounds, Messages: res.Messages, Edges: d.Count(),
		}
		tr.t.do(id, self, "verify.dominating", func(int64) string {
			resp.Dominating = verify.IsEdgeDominatingSet(g, d)
			return ""
		})
		if bound != nil {
			resp.Bound = bound.String()
		}
		if r.edges {
			resp.EdgeList = make([][2]int, 0, d.Count())
			for _, idx := range d.Indices() {
				e := g.Edge(idx)
				resp.EdgeList = append(resp.EdgeList, [2]int{e.U(), e.V()})
			}
		}
		if body, err = json.Marshal(resp); err == nil {
			body = append(body, '\n')
		}
		return ""
	})
	if err != nil {
		return nil, fmt.Errorf("response: %w", err)
	}
	return body, nil
}

// writeSpans writes the spans as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerTimes summarises the spans in ms: for every span name, each
// span's self time (its duration minus its children's) and its total
// duration, and the server.handler spans' durations by X-Cache outcome.
func (t *tracer) layerTimes() (self, total, byOutcome map[string][]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self, total, byOutcome = map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for _, s := range t.spans {
		d := s.End - s.Start
		self[s.Name] = append(self[s.Name], ms(time.Duration(d-child[s.ID])))
		total[s.Name] = append(total[s.Name], ms(time.Duration(d)))
		if s.Name == "server.handler" {
			byOutcome[s.Note] = append(byOutcome[s.Note], ms(time.Duration(d)))
		}
	}
	return self, total, byOutcome
}
