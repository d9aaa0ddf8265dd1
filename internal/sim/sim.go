// Package sim executes deterministic distributed algorithms on
// port-numbered graphs under the synchronous model of Section 2.2 of the
// paper: in every round each node (i) computes, (ii) sends one message to
// each of its ports, and (iii) receives one message from each of its
// ports, routed by the involution p.
//
// There is one round loop (sharded.go). It partitions the nodes into P
// contiguous shards over the graph's flat routing table
// (graph.RoutingTable) and runs every round over two flat message
// arrays indexed by global port: each node writes its outbox window, the
// engine pushes every non-empty message straight into the receiving
// port's inbox slot, and each node then reads its inbox window. A
// message is one uint64, so the arrays hold no pointers: no channels
// between nodes, no boxing, no per-round allocation. Two entry points
// drive it:
//
//   - RunSequential is the loop with one shard, run inline on the
//     caller's goroutine: the deterministic reference and the engine of
//     choice for debugging.
//   - RunSharded runs P shards on P persistent workers with one barrier
//     per phase: the fast path on large graphs and the scaling path for
//     million-node runs. With one shard it takes the same inline path as
//     RunSequential.
//
// Both return identical Results for every shard count (the cross-engine
// suite in engines_test.go checks it). Both honour WithRoundHook (traces,
// figures) and WithContext: the context is polled at every round barrier
// and a canceled or expired run returns an error wrapping ErrCanceled
// plus the context's cause, with no goroutine left behind.
//
// A node is retired as soon as Done reports true after a Receive: the
// engine never calls SendInto or Receive on a retired node, so
// mixed-termination schedules (e.g. degree-dependent scripts on irregular
// graphs) execute identically at every shard count.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"eds/internal/graph"
)

// Message is the content sent over one port in one round: one machine
// word, which covers every message of the paper (an empty marker, a
// flag, a port/degree label, an identifier) within the O(log n) bits of
// the CONGEST model. 0 is the empty message; only non-zero messages are
// sent, counted in Result.Messages and delivered. How the other values
// are laid out is each algorithm's own business (internal/core packs a
// kind tag and a payload).
type Message uint64

// Node is the state machine one node runs. Each round the engine calls
// SendInto, then delivers the round's incoming messages via Receive;
// after Receive it polls Done. Once Done reports true the node is never
// called again except for AppendOutput.
type Node interface {
	// SendInto writes the round's outgoing messages into buf, which has
	// exactly one entry per port (index 0 is port 1) and arrives
	// all-empty (0); ports left 0 carry no message. buf is a window into
	// the engine's pooled flat outbox, rewritten at the next round
	// barrier: retaining buf, a reslice of it, or any alias past the call
	// corrupts later rounds — the outboxalias analyzer (internal/lint)
	// flags it. Retaining the message values written into it is always
	// fine.
	SendInto(round int, buf []Message)
	// Receive delivers the incoming message of each port for this round
	// (0 where the neighbour sent nothing or has retired). inbox is
	// engine-owned and recycled like buf.
	Receive(round int, inbox []Message)
	// Done reports whether the node has stopped.
	Done() bool
	// AppendOutput appends the node's chosen ports — the set X(v) of the
	// paper, 1-based, unsorted is fine — to dst and returns the extended
	// slice. It is called exactly once, after Done reports true.
	AppendOutput(dst []int) []int
}

// Algorithm builds the node state machines of a run. In the
// port-numbering model a starting node knows nothing but its own degree;
// BuildNodes receives the graph only to read g.Deg and, for algorithms
// that model unique identifiers, the node index.
//
// The contract of BuildNodes:
//
//   - nodes has exactly hi-lo entries; BuildNodes must set every one
//     (nodes[i] becomes graph node lo+i). A nil entry fails the run.
//   - per-node state should be carved from arena (one slab per range,
//     not one heap object per node). Carved state is engine-owned and
//     dies with the run (the arena is rewound when the pooled run state
//     is reacquired); never store it in the Algorithm value, a
//     package-level variable, a channel, or anything else that outlives
//     the run. The arenaalias analyzer (internal/lint) flags retention.
//   - concurrent calls on disjoint [lo, hi) ranges with distinct arenas
//     must be safe: the sharded engine builds all shards in parallel.
//     Node identity must therefore come from the node index, never from
//     construction order (a shared counter).
type Algorithm interface {
	// Name identifies the algorithm in logs and error messages.
	Name() string
	// BuildNodes constructs the nodes of the half-open range [lo, hi),
	// carving their state from arena; nodes[i] is node lo+i.
	BuildNodes(g *graph.Graph, lo, hi int, arena *StateArena, nodes []Node)
}

// Result summarises one execution.
type Result struct {
	// Outputs[v] is the sorted set of ports chosen by node v.
	Outputs [][]int
	// Rounds is the number of communication rounds until every node
	// stopped.
	Rounds int
	// Messages counts non-empty messages sent over the whole execution,
	// including those sent to a neighbour that has already retired
	// (which are never delivered).
	Messages int
}

// ErrRoundLimit is returned when an execution exceeds the round budget,
// which for the paper's algorithms indicates a protocol bug.
var ErrRoundLimit = errors.New("sim: round limit exceeded")

// ErrCanceled is returned when a run attached to a context (WithContext)
// is canceled or exceeds its deadline. The returned error also wraps the
// context's cause, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) distinguish the two. The
// context is checked once on entry and once at the top of every round,
// so every shard count reports the identical error for the same
// execution.
var ErrCanceled = errors.New("sim: run canceled")

const defaultMaxRounds = 100_000

type config struct {
	ctx       context.Context
	maxRounds int
	roundHook func(round int, sent [][]Message)
	shards    int
	timings   *Timings
}

// ctxErr reports the cancellation error to surface, or nil if the run's
// context (if any) is still live. The message is deterministic — no
// round counts or timestamps — so every shard count reports it byte for
// byte.
func (c *config) ctxErr(a Algorithm) error {
	if c.ctx == nil || c.ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("%w: algorithm %q: %w", ErrCanceled, a.Name(), context.Cause(c.ctx))
}

// Option customises an execution.
type Option func(*config)

// WithMaxRounds overrides the default round budget.
func WithMaxRounds(n int) Option {
	return func(c *config) { c.maxRounds = n }
}

// WithRoundHook installs a callback invoked after the send phase of every
// round with the full message matrix (sent[v][i-1] = message sent by v on
// port i). Every node has a row of its full degree, retired nodes too:
// a retired node sends nothing, so its row is all empty (0). The engine
// presents its flat outbox through per-node subslices and invokes the
// hook between the send and receive barriers, where no worker is
// running, so traces and figures work at every graph scale. The hook
// must treat the matrix as read-only and must not retain it across
// rounds: the rows are views of a flat buffer that is recycled at the
// next barrier (the outboxalias analyzer in internal/lint enforces this
// mechanically).
func WithRoundHook(fn func(round int, sent [][]Message)) Option {
	return func(c *config) { c.roundHook = fn }
}

// Timings is the wall-clock split of one run, filled in by WithTimings:
// Setup covers run-state acquisition and node construction, Rounds the
// round loop, Outputs the collection and validation of the per-node
// port sets. On an error exit only the phases that completed are set.
type Timings struct {
	Setup   time.Duration
	Rounds  time.Duration
	Outputs time.Duration
}

// WithTimings makes the engine record its phase wall-clock split into
// *t. The split is diagnostic output, not part of the Result: it varies
// run to run while Results stay byte-identical.
func WithTimings(t *Timings) Option {
	return func(c *config) { c.timings = t }
}

// phaseClock times one engine's phases: each tick charges the time
// since the previous tick to one Timings slot. An unhooked run gets a
// clock with a nil target, making every call a no-op, so the engines
// tick unconditionally and pay nothing on the common path.
type phaseClock struct {
	t    *Timings
	last time.Time
}

func startClock(c *config) phaseClock {
	if c.timings == nil {
		return phaseClock{}
	}
	*c.timings = Timings{}
	return phaseClock{t: c.timings, last: time.Now()}
}

func (p *phaseClock) tickSetup() {
	if p.t != nil {
		now := time.Now()
		p.t.Setup += now.Sub(p.last)
		p.last = now
	}
}

func (p *phaseClock) tickRounds() {
	if p.t != nil {
		now := time.Now()
		p.t.Rounds += now.Sub(p.last)
		p.last = now
	}
}

func (p *phaseClock) tickOutputs() {
	if p.t != nil {
		now := time.Now()
		p.t.Outputs += now.Sub(p.last)
		p.last = now
	}
}

// WithContext attaches a context to the run. The engine checks the
// context once on entry and once at the top of every round; when it is
// canceled or its deadline passes, the engine stops, releases all of its
// goroutines, and returns an error wrapping both ErrCanceled and the
// context's cause. A nil ctx is ignored.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

func buildConfig(opts []Option) config {
	c := config{maxRounds: defaultMaxRounds}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// roundLimit is the shared round-budget error.
func roundLimit(a Algorithm, round int) error {
	return fmt.Errorf("%w: algorithm %q still running after %d rounds", ErrRoundLimit, a.Name(), round)
}

// RunSequential executes the algorithm on g with one shard, run inline
// on the caller's goroutine: no workers, no barriers, and WithShards is
// ignored. It is the deterministic reference the other shard counts are
// checked against.
func RunSequential(g *graph.Graph, a Algorithm, opts ...Option) (*Result, error) {
	c := buildConfig(opts)
	c.shards = 1
	return run(g, a, &c)
}

// collectOutputsRange gathers, sorts, and validates the port sets of
// the node range [lo, hi), filling outputs[lo:hi]. Every node appends
// its ports onto one freshly allocated flat buffer and each node's row
// becomes a capped subslice, so collection costs O(1) allocations per
// range instead of one per node. Rows may alias the shared buffer but
// never each other, and a node with no output keeps a nil row, so
// Results stay byte-identical (reflect.DeepEqual) at every shard count.
// The first invalid node in ascending order wins the error; safe for
// concurrent calls on disjoint ranges because the buffer is call-local
// and outputs rows are per-node.
func collectOutputsRange(g *graph.Graph, a Algorithm, nodes []Node, lo, hi int, outputs [][]int) error {
	var flat []int
	ends := make([]int, hi-lo)
	for v := lo; v < hi; v++ {
		start := len(flat)
		flat = nodes[v].AppendOutput(flat)
		row := flat[start:]
		sort.Ints(row)
		for k, p := range row {
			if p < 1 || p > g.Deg(v) {
				return fmt.Errorf("sim: algorithm %q: node %d output invalid port %d", a.Name(), v, p)
			}
			if k > 0 && row[k-1] == p {
				return fmt.Errorf("sim: algorithm %q: node %d output duplicate port %d", a.Name(), v, p)
			}
		}
		ends[v-lo] = len(flat)
	}
	// Subslice only after every append: the buffer no longer moves.
	start := 0
	for i, end := range ends {
		if end > start {
			outputs[lo+i] = flat[start:end:end]
		}
		start = end
	}
	return nil
}

// CheckConsistency verifies the paper's output well-formedness condition:
// if i ∈ X(v) and p(v,i) = (u,j) then j ∈ X(u).
func CheckConsistency(g *graph.Graph, outputs [][]int) error {
	off, route := g.PortOffsets(), g.RoutingTable()
	chosen := make([]bool, len(route)) // by global port index
	for v, out := range outputs {
		for _, i := range out {
			if i < 1 || i > g.Deg(v) {
				return fmt.Errorf("sim: output port %d of node %d out of range [1,%d]", i, v, g.Deg(v))
			}
			chosen[off[v]+int32(i-1)] = true
		}
	}
	for v, out := range outputs {
		for _, i := range out {
			if !chosen[route[off[v]+int32(i-1)]] {
				q := g.P(v, i)
				return fmt.Errorf("sim: inconsistent output: %d ∈ X(%d) but %d ∉ X(%d)", i, v, q.Num, q.Node)
			}
		}
	}
	return nil
}

// EdgeSet converts consistent outputs into the selected edge set D.
func EdgeSet(g *graph.Graph, outputs [][]int) (*graph.EdgeSet, error) {
	if err := CheckConsistency(g, outputs); err != nil {
		return nil, err
	}
	s := graph.NewEdgeSet(g.M())
	for v, out := range outputs {
		for _, i := range out {
			s.Add(g.EdgeAt(v, i))
		}
	}
	return s, nil
}

// RunToEdgeSet runs the algorithm sequentially and returns the selected
// edge set together with the execution statistics.
func RunToEdgeSet(g *graph.Graph, a Algorithm, opts ...Option) (*graph.EdgeSet, *Result, error) {
	res, err := RunSequential(g, a, opts...)
	if err != nil {
		return nil, nil, err
	}
	s, err := EdgeSet(g, res.Outputs)
	if err != nil {
		return nil, nil, err
	}
	return s, res, nil
}
