package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"eds/internal/graph"
	"eds/internal/server"
	"eds/internal/verify"
)

// sendFunc serves one request, identified by id, and returns the
// X-Cache outcome and the response body.
type sendFunc func(id string, r request) (xcache string, body []byte, err error)

// outcome is one served and checked request.
type outcome struct {
	r      request
	lat    float64 // ms; +Inf when the request failed
	xcache string
	err    error
}

func runPath(edges bool) string {
	if edges {
		return "/v1/run?alg=auto&edges=1"
	}
	return "/v1/run?alg=auto"
}

// httpSend posts requests over real HTTP to the fleet's listeners.
func httpSend(client *http.Client, f *fleet, ins []*input) sendFunc {
	return func(id string, r request) (string, []byte, error) {
		head, tail := r.parts(ins[r.graph])
		req, err := http.NewRequest(http.MethodPost, f.urls[r.replica]+runPath(r.edges), io.MultiReader(bytes.NewReader(head), bytes.NewReader(tail)))
		if err != nil {
			return "", nil, err
		}
		req.ContentLength = int64(len(head) + len(tail))
		req.Header.Set("X-Request-ID", id)
		resp, err := client.Do(req)
		if err != nil {
			return "", nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", nil, fmt.Errorf("reading response: %w", err)
		}
		xc := resp.Header.Get("X-Cache")
		if resp.StatusCode != http.StatusOK {
			return xc, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		return xc, body, nil
	}
}

// checker verifies response bodies against the oracle. A body
// byte-identical to one already verified for the same graph and shape
// is correct by that verification, so each distinct body is checked in
// full once and every repeat costs one comparison.
type checker struct {
	ins  []*input
	mu   sync.Mutex
	seen map[[2]int][]byte
}

func newChecker(ins []*input) *checker {
	return &checker{ins: ins, seen: map[[2]int][]byte{}}
}

func (c *checker) check(r request, body []byte) error {
	key := [2]int{r.graph, 0}
	if r.edges {
		key[1] = 1
	}
	c.mu.Lock()
	prev := c.seen[key]
	c.mu.Unlock()
	if prev != nil && bytes.Equal(prev, body) {
		return nil
	}
	in := c.ins[r.graph]
	var got server.RunResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("graph %d: decoding response: %w", r.graph, err)
	}
	if got.Algorithm != in.alg || got.N != in.g.N() || got.M != in.g.M() ||
		got.Rounds != in.rounds || got.Messages != in.messages ||
		got.Edges != in.set.Count() || !got.Dominating {
		return fmt.Errorf("graph %d: response {alg %s n %d m %d rounds %d messages %d edges %d dominating %v} disagrees with the oracle {alg %s n %d m %d rounds %d messages %d edges %d}",
			r.graph, got.Algorithm, got.N, got.M, got.Rounds, got.Messages, got.Edges, got.Dominating,
			in.alg, in.g.N(), in.g.M(), in.rounds, in.messages, in.set.Count())
	}
	if !r.edges {
		if got.EdgeList != nil {
			return fmt.Errorf("graph %d: edge list sent without edges=1", r.graph)
		}
	} else {
		if len(got.EdgeList) != got.Edges {
			return fmt.Errorf("graph %d: %d edges listed, %d announced", r.graph, len(got.EdgeList), got.Edges)
		}
		set := graph.NewEdgeSet(in.g.M())
		for _, p := range got.EdgeList {
			u, v := p[0], p[1]
			if u < 0 || u >= in.g.N() || v < 0 || v >= in.g.N() || in.g.PortBetween(u, v) == 0 {
				return fmt.Errorf("graph %d: listed edge {%d,%d} is not in the graph", r.graph, u, v)
			}
			set.Add(in.g.EdgeAt(u, in.g.PortBetween(u, v)))
		}
		if !verify.IsEdgeDominatingSet(in.g, set) {
			return fmt.Errorf("graph %d: listed edges are not an edge dominating set", r.graph)
		}
		if !set.Equal(in.set) {
			return fmt.Errorf("graph %d: listed edges differ from the sequential engine's", r.graph)
		}
	}
	c.mu.Lock()
	c.seen[key] = bytes.Clone(body)
	c.mu.Unlock()
	return nil
}

// serve sends r, times it, and checks the body.
func serve(send sendFunc, chk *checker, id string, r request) outcome {
	start := time.Now()
	xc, body, err := send(id, r)
	o := outcome{r: r, lat: ms(time.Since(start)), xcache: xc}
	if err == nil {
		err = chk.check(r, body)
	}
	if err != nil {
		o.err = fmt.Errorf("request %s: %w", id, err)
		o.lat = math.Inf(1)
	}
	return o
}

// closedLoop runs w.clients clients over the named request stream; each
// sends its next request when the previous one has completed, until
// the deadline passes or it has sent limit[c] requests (limit nil: no
// count limit). It returns each client's outcomes in send order.
func closedLoop(w *workload, seed int64, stream string, send sendFunc, chk *checker, idPrefix string, deadline time.Time, limit []int) [][]outcome {
	out := make([][]outcome, w.clients)
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := w.requests(seed, stream, c)
			for k := 0; time.Now().Before(deadline) && (limit == nil || k < limit[c]); k++ {
				out[c] = append(out[c], serve(send, chk, fmt.Sprintf("%s-c%d-%d", idPrefix, c, k), next()))
			}
		}()
	}
	wg.Wait()
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
