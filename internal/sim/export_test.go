package sim

import "eds/internal/graph"

// PerNode adapts a per-node constructor to Algorithm for the toy
// algorithms of the engine tests: BuildNodes calls New with each node's
// degree, one heap object per node and no arena. The paper's algorithms
// carve their state from the arena instead; the toys stay short this
// way. Exported so the package's external tests share it.
type PerNode struct {
	Label string
	New   func(degree int) Node
}

// Name implements Algorithm.
func (a PerNode) Name() string { return a.Label }

// BuildNodes implements Algorithm.
func (a PerNode) BuildNodes(g *graph.Graph, lo, hi int, _ *StateArena, nodes []Node) {
	for i := range nodes {
		nodes[i] = a.New(g.Deg(lo + i))
	}
}
