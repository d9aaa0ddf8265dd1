package sim

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"eds/internal/gen"
	"eds/internal/graph"
)

// probeAlg checks push delivery from the receiving side. Every node
// whose index is a multiple of 4 is born done (retired before round 0);
// every other node sends probeMsg on all of its ports in round 0 only,
// then stays live, silent, for two more rounds. Receivers count what
// they see: round-0 messages in received, anything in a later round in
// stale. Counters are shared across shards, hence atomic.
type probeAlg struct {
	received, stale atomic.Int64
}

const probeMsg Message = 7

func probeRetired(v int) bool { return v%4 == 0 }

func (*probeAlg) Name() string { return "probe" }

func (a *probeAlg) BuildNodes(g *graph.Graph, lo, hi int, _ *StateArena, nodes []Node) {
	for i := range nodes {
		left := 3
		if probeRetired(lo + i) {
			left = 0
		}
		nodes[i] = &probeNode{alg: a, left: left}
	}
}

type probeNode struct {
	alg  *probeAlg
	left int
}

func (n *probeNode) SendInto(round int, buf []Message) {
	if round == 0 {
		for i := range buf {
			buf[i] = probeMsg
		}
	}
}

func (n *probeNode) Receive(round int, inbox []Message) {
	for _, m := range inbox {
		switch {
		case m == 0:
		case round == 0 && m == probeMsg:
			n.alg.received.Add(1)
		default:
			n.alg.stale.Add(1)
		}
	}
	n.left--
}

func (n *probeNode) Done() bool                   { return n.left <= 0 }
func (n *probeNode) AppendOutput(dst []int) []int { return dst }

// probeGraph is a random 3-regular graph on 24 nodes. Balanced by ports,
// two shards split it at node 12; the test checks that edges cross that
// boundary, and with one shard per node every edge crosses.
func probeGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := gen.MustRandomRegular(rand.New(rand.NewSource(5)), 24, 3)
	crossing := 0
	for _, e := range g.Edges() {
		if (e.U() < g.N()/2) != (e.V() < g.N()/2) {
			crossing++
		}
	}
	if crossing == 0 {
		t.Fatal("probe graph has no edge across the two-shard boundary")
	}
	return g
}

// TestPushLeavesNoStaleSlot pins the two halves of push delivery. A
// message sent in round 0 must be seen in round 0 and never again: the
// receiving shard empties its inbox slots after delivery, so round 1's
// inbox is all-empty although nobody sends in it. And a message sent to
// an already-retired node is counted in Messages but delivered to no
// one. Both at one shard (inline), two shards, and one shard per node.
func TestPushLeavesNoStaleSlot(t *testing.T) {
	g := probeGraph(t)
	sent, delivered := 0, 0
	for v := 0; v < g.N(); v++ {
		if probeRetired(v) {
			continue
		}
		sent += g.Deg(v)
		for i := 1; i <= g.Deg(v); i++ {
			if !probeRetired(g.Neighbour(v, i)) {
				delivered++
			}
		}
	}
	if delivered == sent {
		t.Fatal("no probe message is sent to a retired node")
	}
	for _, p := range []int{1, 2, g.N()} {
		a := &probeAlg{}
		res, err := RunSharded(g, a, WithShards(p))
		if err != nil {
			t.Fatalf("shards=%d: %v", p, err)
		}
		if res.Rounds != 3 {
			t.Errorf("shards=%d: Rounds = %d, want 3", p, res.Rounds)
		}
		if res.Messages != sent {
			t.Errorf("shards=%d: Messages = %d, want %d (messages to retired nodes count)", p, res.Messages, sent)
		}
		if got := a.received.Load(); got != int64(delivered) {
			t.Errorf("shards=%d: %d messages delivered in round 0, want %d", p, got, delivered)
		}
		if got := a.stale.Load(); got != 0 {
			t.Errorf("shards=%d: %d stale inbox slots seen after round 0, want 0", p, got)
		}
	}
}

// TestRoundHookRowsCoverRetiredNodes pins the round hook's view: every
// node, retired or not, has a row of its full degree, and a retired
// node's row is all empty, as is every row once nobody sends.
func TestRoundHookRowsCoverRetiredNodes(t *testing.T) {
	g := probeGraph(t)
	for _, p := range []int{1, 2, g.N()} {
		hooked := 0
		hook := func(round int, sent [][]Message) {
			hooked++
			if len(sent) != g.N() {
				t.Fatalf("shards=%d round %d: %d rows, want %d", p, round, len(sent), g.N())
			}
			for v, row := range sent {
				if len(row) != g.Deg(v) {
					t.Errorf("shards=%d round %d: node %d row has %d slots, want %d", p, round, v, len(row), g.Deg(v))
				}
				want := probeMsg
				if round > 0 || probeRetired(v) {
					want = 0
				}
				for i, m := range row {
					if m != want {
						t.Errorf("shards=%d round %d: sent[%d][%d] = %d, want %d", p, round, v, i, m, want)
					}
				}
			}
		}
		res, err := RunSharded(g, &probeAlg{}, WithShards(p), WithRoundHook(hook))
		if err != nil {
			t.Fatalf("shards=%d: %v", p, err)
		}
		if hooked != res.Rounds {
			t.Errorf("shards=%d: hook ran %d times, want %d", p, hooked, res.Rounds)
		}
	}
}
