package sim

import (
	"fmt"
	"sync"

	"eds/internal/graph"
)

// runState is the engine-owned per-execution state: the node slice, the
// per-node retirement flags, the flat double-buffered message arrays, and
// the per-shard coordination state. It is recycled through a sync.Pool
// so that repeated runs — the edsd serving pattern of many requests over
// same-shape graphs — allocate nothing beyond the algorithm's own node
// state: an acquired state whose slices already have the required
// capacity is reused as-is, and a smaller one grows with power-of-two
// rounding so a workload of one recurring shape reaches a steady state
// after its first run.
//
// Lifetime discipline (enforced by the engine, mechanically leaned on
// by the outboxalias analyzer): a state is acquired at run entry and
// released exactly once on every exit path, after all worker goroutines
// have stopped — the release is deferred before the workers start, so
// on cancellation, round-limit, or construction-error exits the deferred
// worker shutdown runs first and no goroutine can touch a recycled
// buffer. release clears every pointer-carrying slot (nodes, messages)
// so the pool never pins node state or message payloads across runs.
type runState struct {
	nodes    []Node
	done     []bool
	outbox   []Message // flat send buffer, indexed by global port
	inbox    []Message // flat receive buffer, gathered through the routing table
	stats    []shardStat
	bounds   []int
	hookView [][]Message // per-node outbox windows, built only for hooked runs

	// arenas[s] is shard s's StateArena. The chunks persist across
	// pooled runs — acquireState only rewinds the cursors — so node state
	// stops allocating once a workload's shape has been seen. Held as a
	// slice of values, one per shard, so parallel construction needs no
	// locks.
	arenas []StateArena

	// Worker phase coordination (multi-shard runs only), reused across
	// runs because a channel cannot be closed and recycled: stop tokens,
	// not close, end a worker pool. Each worker owns one token channel —
	// a shared channel would let a fast worker steal a slow one's phase
	// token and run its shard twice while the other shard never runs.
	// Capacities are grown like the slices.
	work []chan int
	idle chan struct{}
}

// shardStat is one shard's slot of per-round accounting. Workers touch
// only their own slot, so the phases stay race-free by construction.
type shardStat struct {
	sent    int   // non-nil messages this round
	pending int   // nodes not yet retired
	err     error // first construction or output error (lowest node in shard)
}

var statePool = sync.Pool{New: func() any { return new(runState) }}

// roundCap rounds a requested length up to a power of two so that
// same-shape workloads stabilise on one buffer size and near-shapes
// share it.
func roundCap(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// grow returns buf resized to length n, reusing its backing array when
// the capacity suffices and allocating with power-of-two rounding when
// it does not. The returned slice's contents are unspecified; callers
// overwrite or clear what they read.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n, roundCap(n))
}

// acquireState returns a runState ready for a run over n nodes and
// ports global ports with p >= 1 shards. done and stats come back
// zeroed; the message buffers are all-nil because release cleared them.
func acquireState(n, ports, p int) *runState {
	s := statePool.Get().(*runState)
	s.nodes = grow(s.nodes, n)
	s.done = grow(s.done, n)
	clear(s.done)
	s.outbox = grow(s.outbox, ports)
	s.inbox = grow(s.inbox, ports)
	// One arena per shard. Unlike grow, the resize must preserve the
	// surviving elements: each arena carries chunks whose whole point is
	// reuse across runs.
	if cap(s.arenas) >= p {
		s.arenas = s.arenas[:p]
	} else {
		old := s.arenas
		s.arenas = make([]StateArena, p, roundCap(p))
		copy(s.arenas, old)
	}
	for i := range s.arenas {
		s.arenas[i].reset()
	}
	s.stats = grow(s.stats, p)
	clear(s.stats)
	s.bounds = grow(s.bounds, p+1)
	if p > 1 {
		s.work = grow(s.work, p)
		for i := range s.work {
			if s.work[i] == nil {
				s.work[i] = make(chan int, 1)
			}
		}
		if cap(s.idle) < p {
			s.idle = make(chan struct{}, roundCap(p))
		}
	}
	return s
}

// buildNodes constructs the nodes of the half-open range [lo, hi) from
// the given arena and checks that BuildNodes set every one. Safe for
// concurrent calls on disjoint ranges with distinct arenas — that is
// exactly how the engine parallelizes its prologue.
func (s *runState) buildNodes(g *graph.Graph, a Algorithm, lo, hi int, arena *StateArena) error {
	a.BuildNodes(g, lo, hi, arena, s.nodes[lo:hi:hi])
	for v := lo; v < hi; v++ {
		if s.nodes[v] == nil {
			return fmt.Errorf("sim: algorithm %q: BuildNodes left node %d nil", a.Name(), v)
		}
	}
	return nil
}

// release clears every reference the state holds — node pointers and
// boxed messages — and returns it to the pool. The engine calls it via
// defer after all workers have stopped; a released state must never be
// touched again by the run that held it. The arenas stay as they are:
// their chunks hold only ints and bools, so they pin nothing, and
// keeping them warm is what makes repeat construction allocation-free.
func (s *runState) release() {
	clear(s.nodes)
	clear(s.outbox)
	clear(s.inbox)
	clear(s.stats)
	clear(s.hookView)
	s.hookView = s.hookView[:0]
	statePool.Put(s)
}

// hookRows builds the hook's per-node view of the flat outbox: one
// capped subslice per node, so a round hook observes the matrix
// sent[v][i-1] at every shard count. Only hooked runs pay this (one slice
// of n headers per run); hooks exist for traces and figures, not for
// the steady-state serving path.
func (s *runState) hookRows(off []int32, n int) [][]Message {
	rows := grow(s.hookView[:0], n)
	for v := 0; v < n; v++ {
		rows[v] = s.outbox[off[v]:off[v+1]:off[v+1]]
	}
	s.hookView = rows
	return rows
}
