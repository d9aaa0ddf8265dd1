package graph

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file freezes the decoder and Builder as they were before the
// graph moved to a single flat CSR representation: per-node port tables
// ([][]Port), a sorted edge list, a per-port edge index, and a routing
// table derived from them. FuzzReadGraphDifferential checks the flat
// decoder against it. The code is kept as it was, with one addition:
// legacyEnsurePort refuses to grow a port table by more than
// legacyMaxGrowth ports in one step and returns errLegacyUnbounded. The
// old decoder accounted growth against the port budget only when both
// endpoints were in range, so "conn 0 999999999 5 1" on a two-node
// graph grew node 0's table to a billion ports before rejecting node 5;
// without the guard such inputs exhaust the fuzzer's memory instead of
// being compared.

const legacyMaxGrowth = 1 << 16

var errLegacyUnbounded = errors.New("legacy: unbounded port-table growth")

type legacyGraph struct {
	conn   [][]Port
	edges  []Edge
	edgeAt [][]int
}

type legacyBuilder struct {
	conn [][]Port
}

func newLegacyBuilder(n int) *legacyBuilder {
	return &legacyBuilder{conn: make([][]Port, n)}
}

func (b *legacyBuilder) N() int { return len(b.conn) }

func (b *legacyBuilder) ensurePort(v, i int) error {
	if v < 0 || v >= len(b.conn) {
		return fmt.Errorf("graph: node %d out of range [0,%d)", v, len(b.conn))
	}
	if i < 1 {
		return fmt.Errorf("graph: port number %d must be >= 1", i)
	}
	if i-len(b.conn[v]) > legacyMaxGrowth {
		return errLegacyUnbounded
	}
	for len(b.conn[v]) < i {
		b.conn[v] = append(b.conn[v], Port{})
	}
	if b.conn[v][i-1].Num != 0 {
		return fmt.Errorf("graph: port (%d,%d) already connected to %v", v, i, b.conn[v][i-1])
	}
	return nil
}

func (b *legacyBuilder) Connect(u, i, v, j int) error {
	if err := b.ensurePort(u, i); err != nil {
		return err
	}
	if u == v && i == j {
		b.conn[u][i-1] = Port{Node: u, Num: i}
		return nil
	}
	if err := b.ensurePort(v, j); err != nil {
		return err
	}
	b.conn[u][i-1] = Port{Node: v, Num: j}
	b.conn[v][j-1] = Port{Node: u, Num: i}
	return nil
}

func (b *legacyBuilder) Build() (*legacyGraph, error) {
	conn := make([][]Port, len(b.conn))
	for v := range b.conn {
		conn[v] = make([]Port, len(b.conn[v]))
		copy(conn[v], b.conn[v])
		for i, p := range conn[v] {
			if p.Num == 0 {
				return nil, fmt.Errorf("graph: port (%d,%d) left unconnected", v, i+1)
			}
		}
	}
	edges, edgeAt := legacyBuildEdges(conn)
	return &legacyGraph{conn: conn, edges: edges, edgeAt: edgeAt}, nil
}

func legacyBuildEdges(conn [][]Port) ([]Edge, [][]int) {
	var edges []Edge
	edgeAt := make([][]int, len(conn))
	for v := range conn {
		edgeAt[v] = make([]int, len(conn[v]))
		for i := range edgeAt[v] {
			edgeAt[v][i] = -1
		}
	}
	for v := range conn {
		for i1, q := range conn[v] {
			if edgeAt[v][i1] >= 0 {
				continue
			}
			self := Port{Node: v, Num: i1 + 1}
			e := Edge{A: self, B: q}
			if q.Less(self) {
				e = Edge{A: q, B: self}
			}
			idx := len(edges)
			edges = append(edges, e)
			edgeAt[v][i1] = idx
			if q != self {
				edgeAt[q.Node][q.Num-1] = idx
			}
		}
	}
	perm := make([]int, len(edges))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		ea, eb := edges[perm[a]], edges[perm[b]]
		if ea.A != eb.A {
			return ea.A.Less(eb.A)
		}
		return ea.B.Less(eb.B)
	})
	inv := make([]int, len(edges))
	sorted := make([]Edge, len(edges))
	for newIdx, oldIdx := range perm {
		sorted[newIdx] = edges[oldIdx]
		inv[oldIdx] = newIdx
	}
	for v := range edgeAt {
		for i := range edgeAt[v] {
			edgeAt[v][i] = inv[edgeAt[v][i]]
		}
	}
	return sorted, edgeAt
}

// routing is the old lazily built flat view: port offsets and the
// routing table over global port indices.
func (g *legacyGraph) routing() (off, route []int32) {
	n := len(g.conn)
	off = make([]int32, n+1)
	pos := int32(0)
	for v := 0; v < n; v++ {
		off[v] = pos
		pos += int32(len(g.conn[v]))
	}
	off[n] = pos
	route = make([]int32, pos)
	for v := range g.conn {
		for i, q := range g.conn[v] {
			route[off[v]+int32(i)] = off[q.Node] + int32(q.Num-1)
		}
	}
	return off, route
}

// digest is the old Digest: sha256 over the little-endian offsets, a -1
// separator, and the routing table.
func (g *legacyGraph) digest() [DigestSize]byte {
	off, route := g.routing()
	h := sha256.New()
	put := func(v int32) {
		h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	for _, v := range off {
		put(v)
	}
	put(-1)
	for _, v := range route {
		put(v)
	}
	var sum [DigestSize]byte
	h.Sum(sum[:0])
	return sum
}

func legacyReadGraphLimits(r io.Reader, lim Limits) (*legacyGraph, error) {
	if lim.MaxNodes <= 0 {
		lim.MaxNodes = DefaultLimits.MaxNodes
	}
	if lim.MaxPorts <= 0 {
		lim.MaxPorts = DefaultLimits.MaxPorts
	}
	sc := bufio.NewScanner(r)
	var b *legacyBuilder
	var maxPortSeen []int
	totalPorts := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "nodes":
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate nodes directive", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: bad nodes directive %q", line, text)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad nodes directive %q", line, text)
			}
			if n < 0 {
				return nil, fmt.Errorf("graph: line %d: negative node count", line)
			}
			if n > lim.MaxNodes {
				return nil, fmt.Errorf("%w: line %d: %d nodes > limit %d", ErrTooLarge, line, n, lim.MaxNodes)
			}
			b = newLegacyBuilder(n)
			maxPortSeen = make([]int, n)
		case "conn":
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: conn before nodes", line)
			}
			if len(fields) != 5 {
				return nil, fmt.Errorf("graph: line %d: bad conn directive %q", line, text)
			}
			var nums [4]int
			for k, f := range fields[1:] {
				v, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: bad conn directive %q: %v", line, text, err)
				}
				nums[k] = v
			}
			v, i, u, j := nums[0], nums[1], nums[2], nums[3]
			if v >= 0 && v < b.N() && u >= 0 && u < b.N() && i >= 1 && j >= 1 {
				grow := 0
				if i > maxPortSeen[v] {
					grow += i - maxPortSeen[v]
				}
				high := maxPortSeen[u]
				if u == v && i > high {
					high = i
				}
				if j > high {
					grow += j - high
				}
				if totalPorts+grow > lim.MaxPorts {
					return nil, fmt.Errorf("%w: line %d: more than %d ports", ErrTooLarge, line, lim.MaxPorts)
				}
				totalPorts += grow
				if i > maxPortSeen[v] {
					maxPortSeen[v] = i
				}
				if j > maxPortSeen[u] {
					maxPortSeen[u] = j
				}
			}
			if err := b.Connect(v, i, u, j); err != nil {
				if errors.Is(err, errLegacyUnbounded) {
					return nil, err
				}
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: missing nodes directive")
	}
	return b.Build()
}
