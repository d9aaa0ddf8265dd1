// Streaming-path suite: ?edges=1&stream=1 must deliver the same edge
// set as the buffered JSON path, as chunked NDJSON, without touching
// the result cache, and must still answer parse/admission errors as
// plain JSON before the first byte of stream leaves.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/sim"
)

// parseStream splits an NDJSON stream body into the summary line and
// the edge lines.
func parseStream(t *testing.T, body []byte) (RunResponse, [][2]int) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("stream body is empty")
	}
	var summary RunResponse
	if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
		t.Fatalf("summary line %q: %v", sc.Text(), err)
	}
	var edges [][2]int
	for sc.Scan() {
		var e [2]int
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("edge line %q: %v", sc.Text(), err)
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning stream: %v", err)
	}
	return summary, edges
}

func TestStreamNDJSONMatchesBufferedResponse(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(64))

	resp, streamBody := postRun(t, ts.Client(), ts.URL, "?alg=auto&edges=1&stream=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d (body %s)", resp.StatusCode, streamBody)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if c := resp.Header.Get("X-Cache"); c != "bypass" {
		t.Errorf("X-Cache = %q, want bypass", c)
	}
	summary, edges := parseStream(t, streamBody)
	if summary.EdgeList != nil {
		t.Error("summary line carries edge_list; edges belong on their own lines")
	}
	if summary.Edges != len(edges) {
		t.Errorf("summary announces %d edges, stream delivered %d lines", summary.Edges, len(edges))
	}
	if !summary.Dominating {
		t.Error("streamed result is not a dominating set")
	}

	// The stream must not have seeded the cache: the buffered request for
	// the same graph is a miss, and its edge list matches the stream's.
	resp2, bufBody := postRun(t, ts.Client(), ts.URL, "?alg=auto&edges=1", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("buffered status = %d", resp2.StatusCode)
	}
	if c := resp2.Header.Get("X-Cache"); c != "miss" {
		t.Errorf("buffered X-Cache after a stream = %q, want miss (streams bypass the cache)", c)
	}
	buffered := decodeRun(t, bufBody)
	if len(buffered.EdgeList) != len(edges) {
		t.Fatalf("buffered edge_list has %d edges, stream had %d", len(buffered.EdgeList), len(edges))
	}
	for i := range edges {
		if edges[i] != buffered.EdgeList[i] {
			t.Fatalf("edge %d: stream %v, buffered %v", i, edges[i], buffered.EdgeList[i])
		}
	}

	// Accounting: one stream response, body-length bytes, in the size
	// histogram and on /statsz.
	snap := s.st.snapshot()
	if snap.streamResponses != 1 {
		t.Errorf("stream responses = %d, want 1", snap.streamResponses)
	}
	if snap.streamBytes != int64(len(streamBody)) {
		t.Errorf("stream bytes = %d, body was %d", snap.streamBytes, len(streamBody))
	}
}

// TestStreamChunkedDelivery proves the stream actually leaves in chunks:
// a response several times streamChunkBytes arrives chunked-encoded, so
// the server never buffered the whole body.
func TestStreamChunkedDelivery(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(30000))

	resp, streamBody := postRun(t, ts.Client(), ts.URL, "?alg=auto&edges=1&stream=1&timeout=60s", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(streamBody) <= streamChunkBytes {
		t.Fatalf("stream body is %d bytes; the test needs > one %d-byte chunk to prove chunking", len(streamBody), streamChunkBytes)
	}
	chunked := false
	for _, te := range resp.TransferEncoding {
		chunked = chunked || te == "chunked"
	}
	if !chunked {
		t.Errorf("TransferEncoding = %v, want chunked (a Content-Length means the body was buffered)", resp.TransferEncoding)
	}
	summary, edges := parseStream(t, streamBody)
	if summary.Edges != len(edges) || !summary.Dominating {
		t.Errorf("summary %+v does not match %d streamed edges", summary, len(edges))
	}
}

func TestStreamRequiresEdges(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, out := postRun(t, ts.Client(), ts.URL, "?stream=1", graphBytes(t, gen.Cycle(8)))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("stream without edges=1: status = %d, want 400 (body %s)", resp.StatusCode, out)
	}
}

// TestStreamErrorsStayJSON pins that failures detected before streaming
// starts are ordinary JSON errors, not half-open streams.
func TestStreamErrorsStayJSON(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, out := postRun(t, ts.Client(), ts.URL, "?edges=1&stream=1&alg=no-such-alg", graphBytes(t, gen.Cycle(8)))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
		t.Errorf("error body %q is not the standard JSON error shape", out)
	}
}

// TestStreamRunErrorParity pins that the buffered and the streaming
// path share one run path: every run failure — scripted through the
// runEngine seam — answers with the same status and the same JSON error
// body whether the client asked for edges=1 or edges=1&stream=1.
func TestStreamRunErrorParity(t *testing.T) {
	// expired runs the real engine under a context that is already
	// done, so the seam returns exactly the error a real run would.
	expired := func(cancelCtx func(context.Context) (context.Context, context.CancelFunc)) func(context.Context, *graph.Graph, sim.Algorithm) (*sim.Result, sim.Timings, error) {
		return func(ctx context.Context, g *graph.Graph, a sim.Algorithm) (*sim.Result, sim.Timings, error) {
			ctx, cancel := cancelCtx(ctx)
			cancel()
			res, err := sim.RunSequential(g, a, sim.WithContext(ctx))
			return res, sim.Timings{}, err
		}
	}
	cases := []struct {
		name     string
		run      func(context.Context, *graph.Graph, sim.Algorithm) (*sim.Result, sim.Timings, error)
		fillPool bool // hold the only worker slot, with no queue behind it
		want     int
		wantMsg  string
	}{
		{
			name: "deadline",
			run: expired(func(ctx context.Context) (context.Context, context.CancelFunc) {
				return context.WithDeadline(ctx, time.Now())
			}),
			want: http.StatusGatewayTimeout,
		},
		{
			name: "client cancel",
			run:  expired(context.WithCancel),
			want: StatusClientClosedRequest,
		},
		{
			name: "deterministic failure",
			run: func(context.Context, *graph.Graph, sim.Algorithm) (*sim.Result, sim.Timings, error) {
				return nil, sim.Timings{}, errors.New("deterministic failure for this graph")
			},
			want:    http.StatusInternalServerError,
			wantMsg: "deterministic failure for this graph",
		},
		{
			name:     "full queue",
			fillPool: true,
			want:     http.StatusTooManyRequests,
		},
	}
	body := graphBytes(t, gen.Cycle(16))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 1, QueueDepth: -1, CacheEntries: -1})
			if tc.run != nil {
				s.runEngine = tc.run
			}
			if tc.fillPool {
				s.sem <- struct{}{}
				defer func() { <-s.sem }()
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			var bodies [2][]byte
			for i, query := range []string{"?edges=1", "?edges=1&stream=1"} {
				resp, out := postRun(t, ts.Client(), ts.URL, query, body)
				if resp.StatusCode != tc.want {
					t.Errorf("%s: status = %d, want %d (body %s)", query, resp.StatusCode, tc.want, out)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Errorf("%s: Content-Type = %q, want application/json", query, ct)
				}
				var e errorResponse
				if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
					t.Errorf("%s: body %q is not a JSON error", query, out)
				}
				if tc.wantMsg != "" && e.Error != tc.wantMsg {
					t.Errorf("%s: error = %q, want %q", query, e.Error, tc.wantMsg)
				}
				bodies[i] = out
			}
			if !bytes.Equal(bodies[0], bodies[1]) {
				t.Errorf("buffered and streamed error bodies differ:\n%s\n%s", bodies[0], bodies[1])
			}
		})
	}
}
