package graph

import (
	"errors"
	"fmt"
	"math"
)

// Builder assembles a port-numbered graph incrementally. Two styles are
// supported and may be mixed:
//
//   - AddEdge(u, v): assign the next free port on each endpoint, in call
//     order. This matches the common construction "take an undirected graph
//     and equip it with an arbitrary port numbering compatible with E".
//   - Connect(u, i, v, j): wire explicit ports, as required by the paper's
//     lower-bound constructions where the port numbering is the adversary's
//     choice.
//
// A call that returns an error changes nothing. The zero value is a
// builder for the empty graph; use NewBuilder to size it.
type Builder struct {
	deg   []int32       // deg[v] = highest port number wired at v
	full  []int32       // ports 1..full[v] of v are all wired
	above map[Port]bool // wired ports (v, i) with i > full[v]+1
	log   []int32       // v, i, u, j, 0 per connection, in call order (see newGraph)
}

// NewBuilder returns a builder for a graph with n isolated nodes.
func NewBuilder(n int) *Builder {
	return &Builder{deg: make([]int32, n), full: make([]int32, n), above: make(map[Port]bool)}
}

// free returns an error unless port i of node v exists and is unwired.
func (b *Builder) free(v, i int) error {
	if err := checkPort(len(b.deg), v, i); err != nil {
		return err
	}
	if i > math.MaxInt32 {
		return fmt.Errorf("graph: port number %d exceeds the int32 port space", i)
	}
	if i <= int(b.full[v]) || b.above[Port{Node: v, Num: i}] {
		return fmt.Errorf("graph: port (%d,%d) already connected to %v", v, i, b.partner(v, i))
	}
	return nil
}

// checkPort returns Connect's error for a port (v, i) that a graph of n
// nodes cannot have.
func checkPort(n, v, i int) error {
	if v < 0 || v >= n {
		return fmt.Errorf("graph: node %d out of range [0,%d)", v, n)
	}
	if i < 1 {
		return fmt.Errorf("graph: port number %d must be >= 1", i)
	}
	return nil
}

// partner returns the port that the wired port (v, i) is connected to.
func (b *Builder) partner(v, i int) Port {
	off := portSpace(b.deg)
	route, _ := wire(off, b.log)
	return portAt(off, route[off[v]+int32(i-1)])
}

// take marks port i of node v as wired.
func (b *Builder) take(v, i int) {
	b.deg[v] = max(b.deg[v], int32(i))
	if i != int(b.full[v])+1 {
		b.above[Port{Node: v, Num: i}] = true
		return
	}
	b.full[v]++
	for next := (Port{Node: v, Num: i + 1}); b.above[next]; next.Num++ {
		delete(b.above, next)
		b.full[v]++
	}
}

// Connect wires port i of node u to port j of node v (and vice versa,
// keeping the involution property). Connecting a port to itself creates a
// directed loop; u == v with i != j creates an undirected loop.
func (b *Builder) Connect(u, i, v, j int) error {
	if err := b.free(u, i); err != nil {
		return err
	}
	if u != v || i != j { // not a directed loop
		if err := b.free(v, j); err != nil {
			return err
		}
		b.take(v, j)
	}
	b.take(u, i)
	b.log = append(b.log, int32(u), int32(i), int32(v), int32(j), 0)
	return nil
}

// MustConnect is Connect but panics on error; for use in generators whose
// inputs are correct by construction.
func (b *Builder) MustConnect(u, i, v, j int) {
	if err := b.Connect(u, i, v, j); err != nil {
		panic(err)
	}
}

// AddEdge connects u and v using the next free port on each side and
// returns the two assigned port numbers. For u == v it creates an
// undirected loop occupying two ports of u.
func (b *Builder) AddEdge(u, v int) (ui, vi int, err error) {
	if u < 0 || u >= len(b.deg) || v < 0 || v >= len(b.deg) {
		return 0, 0, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, len(b.deg))
	}
	// Ports 1..full[v] are wired and full[v]+1 is not.
	ui, vi = int(b.full[u])+1, int(b.full[v])+1
	if u == v {
		vi = ui + 1
	}
	if err := b.Connect(u, ui, v, vi); err != nil {
		return 0, 0, err
	}
	return ui, vi, nil
}

// Build validates that every port is wired and returns the immutable graph.
// The builder stays usable.
func (b *Builder) Build() (*Graph, error) {
	return newGraph(b.deg, b.log)
}

// MustBuild is Build but panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// ErrNotSimple is returned by FromUndirected when the edge list contains a
// loop or a duplicate edge.
var ErrNotSimple = errors.New("graph: edge list is not simple")

// FromUndirected builds a simple port-numbered graph on n nodes from an
// undirected edge list, assigning ports in edge-list order. It rejects
// loops and parallel edges.
func FromUndirected(n int, edges [][2]int) (*Graph, error) {
	b := NewBuilder(n)
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			return nil, fmt.Errorf("%w: loop {%d,%d}", ErrNotSimple, u, v)
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			return nil, fmt.Errorf("%w: duplicate edge {%d,%d}", ErrNotSimple, u, v)
		}
		seen[key] = true
		if _, _, err := b.AddEdge(u, v); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// MustFromUndirected is FromUndirected but panics on error.
func MustFromUndirected(n int, edges [][2]int) *Graph {
	g, err := FromUndirected(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// newGraph is the one construction path of a Graph, shared by Builder and
// the decoder. deg holds each node's highest named port and log the
// connections, five entries (v, i, u, j, line) each: ports (v, i) and
// (u, j), within deg, and the connection's input line, or 0 outside the
// decoder.
// It sizes the CSR from deg, routes the log in order (see wire), and
// rejects a port left unwired.
func newGraph(deg, log []int32) (*Graph, error) {
	off := portSpace(deg)
	route, err := wire(off, log)
	if err != nil {
		return nil, err
	}
	// Global port order is (node, number) order, so emitting each edge at
	// its smaller port yields the canonical order of Edges. Only directed
	// loops take one port each, so they alone can outgrow the capacity.
	edges := make([]Edge, 0, len(route)/2)
	edgeOf := make([]int32, len(route))
	for v := range deg {
		for j := off[v]; j < off[v+1]; j++ {
			self := Port{Node: v, Num: int(j-off[v]) + 1}
			switch q := route[j]; {
			case q < 0:
				return nil, fmt.Errorf("graph: port %v left unconnected", self)
			case q >= j:
				edgeOf[j] = int32(len(edges))
				edges = append(edges, Edge{A: self, B: self})
			default:
				edgeOf[j] = edgeOf[q]
				edges[edgeOf[q]].B = self
			}
		}
	}
	return &Graph{portOff: off, route: route, edgeOf: edgeOf, edges: edges}, nil
}

// portSpace returns the global port offsets of nodes with degrees deg.
func portSpace(deg []int32) []int32 {
	off := make([]int32, len(deg)+1)
	total := 0
	for v, d := range deg {
		total += int(d)
		if total > math.MaxInt32 {
			panic(fmt.Sprintf("graph: %d ports exceed the int32 port index space", total))
		}
		off[v+1] = int32(total)
	}
	return off
}

// wire routes the logged connections over the port space off, leaving
// unwired ports at -1. It fails at the first connection that names a
// port already wired, with the error Connect gives, prefixed by the
// connection's input line if it has one.
func wire(off, log []int32) ([]int32, error) {
	route := make([]int32, off[len(off)-1])
	for j := range route {
		route[j] = -1
	}
	for k := 0; k < len(log); k += 5 {
		a, c := off[log[k]]+log[k+1]-1, off[log[k+2]]+log[k+3]-1
		for _, p := range [2]int32{a, c} {
			if route[p] >= 0 {
				err := fmt.Errorf("graph: port %v already connected to %v", portAt(off, p), portAt(off, route[p]))
				if line := log[k+4]; line > 0 {
					err = fmt.Errorf("graph: line %d: %v", line, err)
				}
				return nil, err
			}
			if a == c {
				break // a directed loop has one port
			}
		}
		route[a], route[c] = c, a
	}
	return route, nil
}
