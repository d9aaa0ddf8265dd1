package server

import (
	"bufio"
	"context"
	"net/http"
	"strconv"

	"eds/internal/graph"
	"eds/internal/ratio"
	"eds/internal/sim"
)

// streamChunkBytes is the write-buffer size of the NDJSON stream: the
// response leaves in chunks of roughly this size, each followed by a
// flush, so the client sees edges while the tail is still being
// written and the server never holds more than one chunk of one
// response in memory.
const streamChunkBytes = 64 << 10

// streamRun answers ?edges=1&stream=1 in chunked NDJSON: one summary
// line (RunResponse with EdgeList omitted; Edges announces the line
// count), then one `[u,v]` line per dominating edge. A million-edge
// response is ~16 MiB of body served from a 64 KiB buffer, where the
// buffered JSON path would build the whole [][2]int and its marshalled
// body in memory first.
//
// Streams bypass the result cache and the flight group — their point is
// that the complete body never exists, so there is nothing to cache or
// share — and they are always served by the replica the client asked
// (owner routing buys nothing without a cacheable body). The run still
// goes through the admission queue like any other.
func (s *Server) streamRun(ctx context.Context, w http.ResponseWriter, req runRequest, g *graph.Graph, alg sim.Algorithm, bound *ratio.R) {
	s.execute(ctx, w, req, g, alg, func(res *sim.Result) error {
		summary, d, err := summarize(g, alg.Name(), bound, res)
		if err != nil {
			return err
		}
		summaryLine, err := marshalLine(summary)
		if err != nil {
			return err
		}

		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Cache", "bypass")
		w.WriteHeader(http.StatusOK)

		cw := &flushingCounter{w: w}
		if f, ok := w.(http.Flusher); ok {
			cw.f = f
		}
		bw := bufio.NewWriterSize(cw, streamChunkBytes)
		bw.Write(summaryLine)
		var line []byte
		for _, idx := range d.Indices() {
			e := g.Edge(idx)
			line = append(line[:0], '[')
			line = strconv.AppendInt(line, int64(e.U()), 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(e.V()), 10)
			line = append(line, ']', '\n')
			if _, err := bw.Write(line); err != nil {
				// The client went away mid-stream; there is no status left
				// to change, just stop producing.
				break
			}
		}
		bw.Flush()
		s.st.recordStream(cw.n)
		s.st.recordStatus(http.StatusOK)
		return nil
	})
}

// flushingCounter counts body bytes and flushes the HTTP layer after
// every buffer drain, turning each full bufio chunk into one HTTP/1.1
// chunk on the wire.
type flushingCounter struct {
	w http.ResponseWriter
	f http.Flusher
	n int64
}

func (c *flushingCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if c.f != nil {
		c.f.Flush()
	}
	return n, err
}
