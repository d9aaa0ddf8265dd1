package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// readGraphSeeds is the FuzzReadGraph corpus, shared with
// FuzzReadGraphDifferential.
var readGraphSeeds = []string{
	"nodes 2\nconn 0 1 1 1\n",
	"nodes 3\nconn 0 1 1 1\nconn 1 2 2 1\n",
	"nodes 1\nconn 0 1 0 1\n",              // directed loop
	"nodes 1\nconn 0 1 0 2\n",              // undirected loop
	"# comment\n\nnodes 2\nconn 0 1 1 1\n", // comments + blanks
	"nodes",                                // truncated directive
	"nodes 99999999999999999999",           // overflows int
	"nodes 2\nconn 0 1000000 1 1\n",        // huge port number
	"nodes -5\n",
	"nodes 2\nnodes 2\n",
	"conn 0 1 1 1\n",
}

// FuzzReadGraph feeds arbitrary bytes to the codec, which now parses
// untrusted network input for the edsd server. The decoder must never
// panic and must never allocate beyond the configured limits; any graph
// it does accept must validate, and the WriteTo → ReadGraph round trip
// of an accepted graph must be the identity.
func FuzzReadGraph(f *testing.F) {
	for _, seed := range readGraphSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Tight limits keep the fuzzer fast and prove the caps bound
		// allocation no matter what the input declares.
		lim := Limits{MaxNodes: 64, MaxPorts: 256}
		g, err := ReadGraphLimits(bytes.NewReader(data), lim)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		if g.N() > lim.MaxNodes || g.NumPorts() > lim.MaxPorts {
			t.Fatalf("limits not enforced: n=%d ports=%d", g.N(), g.NumPorts())
		}
		var buf bytes.Buffer
		if err := WriteTo(&buf, g); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		canonical := buf.String()
		h, err := ReadGraphLimits(strings.NewReader(canonical), lim)
		if err != nil {
			t.Fatalf("re-reading WriteTo output: %v", err)
		}
		if !g.Equal(h) {
			t.Fatalf("round trip is not the identity:\n%s", canonical)
		}
		// Canonical form is a fixed point: serialising again must yield
		// the same bytes (the edsd result cache keys on them).
		buf.Reset()
		if err := WriteTo(&buf, h); err != nil {
			t.Fatalf("WriteTo(round-tripped): %v", err)
		}
		if buf.String() != canonical {
			t.Fatalf("canonical form is not a fixed point:\n%q\nvs\n%q", canonical, buf.String())
		}
	})
}

// FuzzReadGraphDifferential checks the flat decoder against the frozen
// decoder of legacy_test.go: both must accept the same inputs, fail with
// the same error (the first failing line, ErrTooLarge or not), and build
// the same graph. The flat decoder must also behave the same whether or
// not the reader reports its length.
func FuzzReadGraphDifferential(f *testing.F) {
	for _, seed := range readGraphSeeds {
		f.Add([]byte(seed))
	}
	for _, seed := range []string{
		// A double-wired port on line 3 is the first error, before the
		// over-budget port on line 5, a bad field, or a bad endpoint.
		"nodes 3\nconn 0 1 1 1\nconn 0 1 2 1\n# c\nconn 0 2 1 300\n",
		"nodes 2\nconn 0 1 1 1\nconn 1 1 0 2\nconn 0 x 1 1\n",
		"nodes 2\nconn 0 1 1 1\nconn 1 2 0 1\nconn 1 3 5 1\n",
		"nodes 2\nconn 0 1 1 1\nconn 0 2 1 2\nnodes 2\n",
		// A taken port named beside a bad endpoint on the same line.
		"nodes 2\nconn 0 1 1 1\nconn 0 1 5 1\n",
		"nodes 2\nconn 0 1 1 1\nconn 1 1 0 0\n",
		"nodes 2\nconn 0 2 1 1\nconn 0 1 7 1\n",
		// Budget charged on a line that also double-wires.
		"nodes 2\nconn 0 1 1 1\nconn 0 1 1 255\n",
		// Port gaps, and a gap beside a double wire.
		"nodes 2\nconn 0 2 1 1\n",
		"nodes 3\nconn 0 3 1 1\nconn 0 1 2 1\n",
		"nodes 3\nconn 0 2 1 1\nconn 0 2 2 1\n",
		// Directed and undirected loops, and loops colliding.
		"nodes 1\nconn 0 1 0 1\nconn 0 2 0 3\n",
		"nodes 1\nconn 0 1 0 2\nconn 0 2 0 2\n",
		"nodes 2\nconn 0 1 0 1\nconn 1 1 0 1\n",
		// Line terminators and whitespace.
		"nodes 2\r\nconn 0 1 1 1\r\n",
		"nodes 2\r\r\nconn 0 1 1 1\r",
		"nodes 2\n\t conn 0\v1\f1 1 \n",
		"nodes\u00a02\nconn\u20030 1 1 1\u2028\n",
		"nodes 2\n\xffconn 0 1 1 1\n",
		"nodes 2\nconn 0 1 1 1 \xc2\n",
		// Signs, leading zeros and overflow.
		"nodes +2\nconn -0 +1 01 001\n",
		"nodes 2\nconn 0 1 1 9223372036854775808\n",
		"nodes 2\nconn 0 1 1 -9223372036854775808\n",
		"nodes 2\nconn 0 1 1 1_0\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lim := Limits{MaxNodes: 64, MaxPorts: 256}
		want, wantErr := legacyReadGraphLimits(bytes.NewReader(data), lim)
		if errors.Is(wantErr, errLegacyUnbounded) {
			t.Skip("the frozen decoder would grow a port table without bound")
		}
		got, err := ReadGraphLimits(bytes.NewReader(data), lim)
		unsized, unsizedErr := ReadGraphLimits(struct{ io.Reader }{bytes.NewReader(data)}, lim)
		if fmt.Sprint(err) != fmt.Sprint(unsizedErr) || err == nil && !got.Equal(unsized) {
			t.Fatalf("decoding depends on the reader: %v vs %v", err, unsizedErr)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error = %v, frozen decoder: %v", err, wantErr)
		}
		if errors.Is(err, ErrTooLarge) != errors.Is(wantErr, ErrTooLarge) {
			t.Fatalf("ErrTooLarge classification differs: %v vs %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if got.N() != len(want.conn) {
			t.Fatalf("N = %d, frozen decoder %d", got.N(), len(want.conn))
		}
		for v := range want.conn {
			if got.Deg(v) != len(want.conn[v]) {
				t.Fatalf("Deg(%d) = %d, frozen decoder %d", v, got.Deg(v), len(want.conn[v]))
			}
			for i, q := range want.conn[v] {
				if got.P(v, i+1) != q || got.EdgeAt(v, i+1) != want.edgeAt[v][i] {
					t.Fatalf("port (%d,%d): P=%v EdgeAt=%d, frozen decoder %v %d",
						v, i+1, got.P(v, i+1), got.EdgeAt(v, i+1), q, want.edgeAt[v][i])
				}
			}
		}
		off, route := want.routing()
		if !slices.Equal(got.Edges(), want.edges) || !slices.Equal(got.PortOffsets(), off) ||
			!slices.Equal(got.RoutingTable(), route) {
			t.Fatalf("flat views differ:\nEdges %v\n  vs  %v\nRoutingTable %v\n  vs  %v",
				got.Edges(), want.edges, got.RoutingTable(), route)
		}
		if Digest(got) != want.digest() {
			t.Fatal("Digest differs from the frozen decoder's")
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
	})
}

// FuzzBuilder feeds arbitrary connect sequences to the builder: whatever
// subset of operations succeeds must still produce a valid involution,
// and Build must never return a structurally broken graph.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 1, 2, 2, 1})
	f.Add([]byte{0, 1, 0, 1})             // directed loop
	f.Add([]byte{0, 1, 0, 2, 1, 1, 1, 2}) // undirected loops
	f.Add([]byte{3, 9, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 5
		b := NewBuilder(n)
		wired := 0
		for i := 0; i+3 < len(data); i += 4 {
			u := int(data[i]) % n
			pi := 1 + int(data[i+1])%6
			v := int(data[i+2]) % n
			pj := 1 + int(data[i+3])%6
			if err := b.Connect(u, pi, v, pj); err == nil {
				wired++
			}
		}
		g, err := b.Build()
		if err != nil {
			// Holes in the port space are legitimate build failures.
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("built graph fails validation: %v", err)
		}
		total := 0
		for v := 0; v < g.N(); v++ {
			total += g.Deg(v)
		}
		// Handshake: every edge has two port endpoints except directed
		// loops, which have one.
		directed := 0
		for _, e := range g.Edges() {
			if e.IsDirectedLoop() {
				directed++
			}
		}
		if total != 2*(g.M()-directed)+directed {
			t.Fatalf("handshake violated: ports %d, edges %d (%d directed loops)", total, g.M(), directed)
		}
	})
}

// FuzzRoutingTable builds graphs from arbitrary connect sequences and
// checks that the flat routing view is a self-inverse permutation of the
// global port space consistent with the involution g.P(v, i).
func FuzzRoutingTable(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 1, 2, 2, 1})
	f.Add([]byte{0, 1, 0, 1})             // directed loop
	f.Add([]byte{0, 1, 0, 2, 1, 1, 1, 2}) // undirected loops
	f.Add([]byte{2, 1, 3, 1, 3, 2, 4, 1, 4, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 6
		b := NewBuilder(n)
		for i := 0; i+3 < len(data); i += 4 {
			u := int(data[i]) % n
			pi := 1 + int(data[i+1])%7
			v := int(data[i+2]) % n
			pj := 1 + int(data[i+3])%7
			b.Connect(u, pi, v, pj) // failures leave holes; Build rejects them
		}
		g, err := b.Build()
		if err != nil {
			return
		}
		off := g.PortOffsets()
		route := g.RoutingTable()
		total := 0
		for v := 0; v < g.N(); v++ {
			if int(off[v]) != total {
				t.Fatalf("PortOffsets[%d] = %d, want %d", v, off[v], total)
			}
			total += g.Deg(v)
		}
		if int(off[g.N()]) != total || len(route) != total {
			t.Fatalf("port space size mismatch: off[n]=%d len(route)=%d want %d", off[g.N()], len(route), total)
		}
		seen := make([]bool, total)
		for j := range route {
			p := route[j]
			if p < 0 || int(p) >= total {
				t.Fatalf("route[%d] = %d out of range [0,%d)", j, p, total)
			}
			if route[p] != int32(j) {
				t.Fatalf("not self-inverse: route[%d]=%d, route[%d]=%d", j, p, p, route[p])
			}
			if seen[p] {
				t.Fatalf("route is not a permutation: %d hit twice", p)
			}
			seen[p] = true
		}
		for v := 0; v < g.N(); v++ {
			for i := 1; i <= g.Deg(v); i++ {
				q := g.P(v, i)
				if want := off[q.Node] + int32(q.Num-1); route[off[v]+int32(i-1)] != want {
					t.Fatalf("route for port (%d,%d) disagrees with P: got %d, want %d",
						v, i, route[off[v]+int32(i-1)], want)
				}
			}
		}
	})
}

// FuzzEdgeSetOps checks the bitset against a map-based model.
func FuzzEdgeSetOps(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 1, 63, 0, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		const m = 130
		s := NewEdgeSet(m)
		model := map[int]bool{}
		for i := 0; i+1 < len(data); i += 2 {
			idx := int(data[i+1]) % m
			if data[i]%2 == 0 {
				s.Add(idx)
				model[idx] = true
			} else {
				s.Remove(idx)
				delete(model, idx)
			}
		}
		if s.Count() != len(model) {
			t.Fatalf("Count = %d, model %d", s.Count(), len(model))
		}
		for idx := 0; idx < m; idx++ {
			if s.Has(idx) != model[idx] {
				t.Fatalf("Has(%d) = %v, model %v", idx, s.Has(idx), model[idx])
			}
		}
	})
}
