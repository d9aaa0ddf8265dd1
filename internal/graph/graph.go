// Package graph implements port-numbered graphs, the network model of
// Suomela's "Distributed Algorithms for Edge Dominating Sets" (PODC 2010),
// Section 2.1.
//
// A port-numbered graph is a set of nodes V, a degree function d, and an
// involution p on the set of ports {(v, i) : v ∈ V, 1 ≤ i ≤ d(v)}. The
// involution routes messages: what node v sends to its port i is received
// by node u from port j whenever p(v, i) = (u, j).
//
// A Graph stores exactly that, once, in flat CSR form. Ports are numbered
// globally in node order: port (v, i) has global index PortOffsets()[v] +
// i - 1, so the ports of node v occupy [PortOffsets()[v],
// PortOffsets()[v+1]) and the offsets encode the degree function. The
// routing table maps every global port index to the global index of its
// involution partner; it is a self-inverse permutation whose fixed points
// are the directed loops, and an engine routes a flat outbox into a flat
// inbox with one gather, inbox[j] = outbox[RoutingTable()[j]]. A per-port
// index into the canonical edge list completes the storage. Everything
// else (Deg, P, EdgeAt, Neighbour, MaxDegree, Regular, Equal, Validate)
// is derived from these arrays. Slices returned by the accessors share
// the graph's storage and must be treated as read-only.
//
// The package supports multigraphs: parallel edges, undirected loops
// (p(v, i) = (v, j) with i ≠ j), and directed loops (fixed points
// p(v, i) = (v, i)). Simple graphs are a validated special case. Covering
// maps in the lower-bound constructions target multigraphs, so the whole
// stack runs on them unchanged.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Port identifies one port of one node. Node is the 0-based node index and
// Num is the 1-based port number, following the paper's convention that a
// node of degree d has ports 1, 2, ..., d.
type Port struct {
	Node int
	Num  int
}

// Less orders ports lexicographically by (Node, Num).
func (p Port) Less(q Port) bool {
	if p.Node != q.Node {
		return p.Node < q.Node
	}
	return p.Num < q.Num
}

// String formats the port as "(v, i)".
func (p Port) String() string {
	return fmt.Sprintf("(%d,%d)", p.Node, p.Num)
}

// Edge is one edge of a port-numbered graph, identified by the pair of
// ports it connects. A is the canonically smaller port. For a directed
// loop (a fixed point of the involution) A == B; for an undirected loop
// A.Node == B.Node with A.Num < B.Num.
type Edge struct {
	A, B Port
}

// U returns the node index of endpoint A.
func (e Edge) U() int { return e.A.Node }

// V returns the node index of endpoint B.
func (e Edge) V() int { return e.B.Node }

// IsLoop reports whether both endpoints are the same node.
func (e Edge) IsLoop() bool { return e.A.Node == e.B.Node }

// IsDirectedLoop reports whether the edge is a fixed point of the
// involution (the paper's directed loop).
func (e Edge) IsDirectedLoop() bool { return e.A == e.B }

// Other returns the endpoint opposite to node v. It panics if v is not an
// endpoint. For loops it returns v itself.
func (e Edge) Other(v int) int {
	switch v {
	case e.A.Node:
		return e.B.Node
	case e.B.Node:
		return e.A.Node
	default:
		panic(fmt.Sprintf("graph: node %d is not an endpoint of %v", v, e))
	}
}

// Covers reports whether the edge covers node v (v is an endpoint).
func (e Edge) Covers(v int) bool { return e.A.Node == v || e.B.Node == v }

// String formats the edge as "{u,v}" with its port pair.
func (e Edge) String() string {
	return fmt.Sprintf("{%d,%d}[%d:%d]", e.A.Node, e.B.Node, e.A.Num, e.B.Num)
}

// Graph is an immutable port-numbered graph in the flat form described in
// the package documentation. Construct one with a Builder, ReadGraph, or a
// generator from internal/gen.
type Graph struct {
	portOff []int32 // portOff[v] = global index of port (v, 1); len N()+1
	route   []int32 // route[j] = global index of the partner of port j
	edgeOf  []int32 // edgeOf[j] = index into edges of the edge at port j
	edges   []Edge  // canonical edge list, sorted by Edge.A
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.portOff) - 1 }

// M returns the number of edges (loops count once, a directed loop is one
// edge, parallel edges count separately).
func (g *Graph) M() int { return len(g.edges) }

// Deg returns the degree of node v, i.e. its number of ports. A directed
// loop contributes 1 to the degree, an undirected loop contributes 2.
func (g *Graph) Deg(v int) int { return int(g.portOff[v+1] - g.portOff[v]) }

// port returns the global index of port (v, i). It panics when i is not a
// port of v.
func (g *Graph) port(v, i int) int32 {
	if i < 1 || i > g.Deg(v) {
		panic(fmt.Sprintf("graph: port %d out of range for node %d of degree %d", i, v, g.Deg(v)))
	}
	return g.portOff[v] + int32(i-1)
}

// P evaluates the involution: P(v, i) is the port connected to port i of
// node v. Port numbers are 1-based.
func (g *Graph) P(v, i int) Port {
	e := g.edges[g.edgeOf[g.port(v, i)]]
	if e.A == (Port{Node: v, Num: i}) {
		return e.B
	}
	return e.A
}

// EdgeAt returns the index (into Edges) of the edge attached to port i of
// node v.
func (g *Graph) EdgeAt(v, i int) int { return int(g.edgeOf[g.port(v, i)]) }

// Edge returns the edge with the given index.
func (g *Graph) Edge(idx int) Edge { return g.edges[idx] }

// Edges returns the canonical edge list. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// NumPorts returns the total number of ports, i.e. the sum of all node
// degrees (the length of the routing table).
func (g *Graph) NumPorts() int { return len(g.route) }

// PortOffsets returns the per-node offsets into the global port space:
// a slice of length N()+1 where entry v is the global index of port
// (v, 1) and entry N() is the total port count. The caller must not
// modify the returned slice.
func (g *Graph) PortOffsets() []int32 { return g.portOff }

// RoutingTable returns the flat involution: entry j is the global port
// index of P(v, i) where j is the global index of port (v, i). The table
// is a self-inverse permutation of [0, NumPorts()). The caller must not
// modify the returned slice.
func (g *Graph) RoutingTable() []int32 { return g.route }

// MaxDegree returns the maximum node degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		maxDeg = max(maxDeg, g.Deg(v))
	}
	return maxDeg
}

// Regular reports whether all nodes have the same degree and returns that
// degree. The empty graph is vacuously 0-regular.
func (g *Graph) Regular() (d int, ok bool) {
	// No degree exceeds the maximum, so they sum to N·max only if all equal it.
	if d = g.MaxDegree(); g.NumPorts() != d*g.N() {
		return 0, false
	}
	return d, true
}

// IsSimple reports whether the graph has no loops and no parallel edges.
func (g *Graph) IsSimple() bool {
	seen := make(map[[2]int]bool, len(g.edges))
	for _, e := range g.edges {
		if e.IsLoop() {
			return false
		}
		key := [2]int{e.A.Node, e.B.Node}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if seen[key] {
			return false
		}
		seen[key] = true
	}
	return true
}

// Neighbour returns the node at the other end of port i of node v.
func (g *Graph) Neighbour(v, i int) int { return g.P(v, i).Node }

// Neighbours returns the multiset of neighbours of v in port order.
// The result is freshly allocated.
func (g *Graph) Neighbours(v int) []int {
	out := make([]int, g.Deg(v))
	for i := range out {
		out[i] = g.Neighbour(v, i+1)
	}
	return out
}

// HasEdgeBetween reports whether at least one edge joins u and v.
func (g *Graph) HasEdgeBetween(u, v int) bool { return g.PortBetween(u, v) != 0 }

// PortBetween returns v's port number of some edge {v, u}, or 0 if none.
func (g *Graph) PortBetween(v, u int) int {
	for i := 1; i <= g.Deg(v); i++ {
		if g.Neighbour(v, i) == u {
			return i
		}
	}
	return 0
}

// IncidentEdges returns the indices of all edges incident to v, in port
// order. An undirected loop appears once, at its first port; a directed
// loop appears once.
func (g *Graph) IncidentEdges(v int) []int {
	out := make([]int, 0, g.Deg(v))
	for i := 1; i <= g.Deg(v); i++ {
		idx := g.EdgeAt(v, i)
		if e := g.edges[idx]; e.IsLoop() && e.A.Num < i {
			continue
		}
		out = append(out, idx)
	}
	return out
}

// Validate checks the structural invariants: the offsets describe the
// port space, the routing table is an involution on it, and every port's
// edge index names the edge joining it to its partner.
func (g *Graph) Validate() error {
	total := int32(len(g.route))
	if len(g.portOff) == 0 || g.portOff[0] != 0 || !slices.IsSorted(g.portOff) ||
		g.portOff[g.N()] != total || len(g.edgeOf) != len(g.route) {
		return fmt.Errorf("graph: port offsets, routes and edge indices do not describe one port space")
	}
	for j, q := range g.route {
		self := portAt(g.portOff, int32(j))
		if q < 0 || q >= total || g.route[q] != int32(j) {
			return fmt.Errorf("graph: involution violated at %v", self)
		}
		partner := portAt(g.portOff, q)
		if idx := g.edgeOf[j]; idx < 0 || int(idx) >= len(g.edges) ||
			g.edges[idx] != (Edge{A: self, B: partner}) && g.edges[idx] != (Edge{A: partner, B: self}) {
			return fmt.Errorf("graph: edge index at %v does not name the edge joining it to %v", self, partner)
		}
	}
	return nil
}

// Equal reports whether two graphs have identical node sets, degrees, and
// involutions (hence identical port numberings).
func (g *Graph) Equal(h *Graph) bool {
	return slices.Equal(g.portOff, h.portOff) && slices.Equal(g.route, h.route)
}

// String renders a compact description, mostly for test failure messages.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.N(), g.M())
}

// portAt converts a global port index back to its (node, number) pair by
// binary search over the offsets.
func portAt(off []int32, j int32) Port {
	v := sort.Search(len(off)-1, func(v int) bool { return off[v+1] > j })
	return Port{Node: v, Num: int(j-off[v]) + 1}
}
