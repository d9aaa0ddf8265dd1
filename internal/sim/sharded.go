package sim

import (
	"runtime"

	"eds/internal/graph"
)

// AutoShardedPorts is the port count (sum of degrees ≈ nodes×degree)
// at which RunAuto (eds.RunAuto, edsrun's default, edsd, the harness
// scaling study) switches from one inline shard to one shard per CPU.
// Ports, not nodes, measure the work the shards parallelize — every
// phase (node construction, send, routing gather, receive, output
// collection) is linear in ports — while the overhead is per-round
// barriers and per-run worker spawns, which are independent of graph
// size. An earlier node-count threshold (4096) mis-ranked dense graphs
// small and sparse graphs large; with the parallel prologue the port
// crossover sits in the low tens of thousands on multi-core hardware.
const AutoShardedPorts = 16384

// EngineChoice is RunAuto's policy as a pure function of the run's
// setup volume (n nodes, ports = sum of degrees) and the available
// parallelism: "sequential" (one inline shard) when only one CPU is
// usable or the graph is too small for the barrier overhead to pay off,
// "sharded" (one shard per CPU) otherwise. Exported so the decision
// boundary is pinned by a table-driven test instead of re-implemented
// by callers.
func EngineChoice(n, ports, procs int) string {
	if procs <= 1 || ports < AutoShardedPorts {
		return "sequential"
	}
	return "sharded"
}

// RunAuto picks the shard count by setup volume via EngineChoice — one
// inline shard for small graphs or single-CPU processes, GOMAXPROCS
// shards for large graphs on multi-core — and is the single home of
// that policy for the facade, the CLI, the server, and the harness
// studies. The shard count never changes the Result, only wall-clock
// time, so it is the caller's process — never a remote client — that
// decides it. Both paths honour WithRoundHook and WithContext, so
// hooked or cancellable runs take the same path as any other.
func RunAuto(g *graph.Graph, a Algorithm, opts ...Option) (*Result, error) {
	if EngineChoice(g.N(), g.NumPorts(), runtime.GOMAXPROCS(0)) == "sharded" {
		return RunSharded(g, a, opts...)
	}
	return RunSequential(g, a, opts...)
}

// WithShards sets the number of worker shards used by RunSharded. Values
// <= 0 select runtime.GOMAXPROCS(0). The shard count never affects the
// Result, only the parallelism. RunSequential ignores it.
func WithShards(p int) Option {
	return func(c *config) { c.shards = p }
}

// Phase codes: what every shard runs between two barriers. phaseStop
// ends the worker pool without closing a channel, so pooled channels
// survive into the next run.
const (
	phaseStop = iota
	phaseInit
	phaseSend
	phaseRecv
	phaseOutput
)

// shardedRun is the per-run coordination of the round loop. With p > 1
// shards, p persistent workers spawned once at run start loop over phase
// tokens, so a round costs channel operations only — no goroutine
// spawns, no closures, no allocation. The coordinator writes round
// between barriers, while every worker is parked on its work channel;
// the channel send/receive pair orders those writes before the workers'
// reads. With one shard every phase runs inline on the coordinator.
type shardedRun struct {
	st      *runState
	g       *graph.Graph
	a       Algorithm
	off     []int32
	route   []int32
	p       int
	round   int
	outputs [][]int // phaseOutput destination, set before the barrier
}

// worker is one shard's loop. It exits on phaseStop, signalling idle
// first; after that signal it never touches shared state again, so the
// coordinator's stop barrier doubles as the release fence for the
// pooled buffers.
func (r *shardedRun) worker(s int) {
	for {
		phase := <-r.st.work[s]
		r.runPhase(s, phase)
		r.st.idle <- struct{}{}
		if phase == phaseStop {
			return
		}
	}
}

// barrier runs one phase on every shard and waits for all of them. One
// shard runs it inline: no worker exists to hand it to.
func (r *shardedRun) barrier(phase int) {
	if r.p == 1 {
		r.runPhase(0, phase)
		return
	}
	for i := 0; i < r.p; i++ {
		r.st.work[i] <- phase
	}
	for i := 0; i < r.p; i++ {
		<-r.st.idle
	}
}

// runPhase runs one phase on shard s's node range.
func (r *shardedRun) runPhase(s, phase int) {
	lo, hi := r.st.bounds[s], r.st.bounds[s+1]
	switch phase {
	case phaseInit:
		r.initPhase(s, lo, hi)
	case phaseSend:
		r.sendPhase(s, lo, hi)
	case phaseRecv:
		r.recvPhase(s, lo, hi)
	case phaseOutput:
		r.outputPhase(s, lo, hi)
	}
}

// initPhase builds the shard's nodes — the parallel prologue: every
// shard carves its state from its own arena concurrently, so setup
// scales with P — and retires nodes that are born done (zero-round
// algorithms).
func (r *shardedRun) initPhase(s, lo, hi int) {
	st := r.st
	if err := st.buildNodes(r.g, r.a, lo, hi, &st.arenas[s]); err != nil {
		st.stats[s].err = err
		return
	}
	pending := 0
	for v := lo; v < hi; v++ {
		if st.nodes[v].Done() {
			st.done[v] = true
		} else {
			pending++
		}
	}
	st.stats[s].pending = pending
}

// outputPhase collects, sorts, and validates the shard's node outputs
// into the coordinator's outputs slice. Ranges are disjoint and each
// call appends to its own flat buffer, so the epilogue parallelizes
// like the prologue; the first invalid shard in index order wins the
// error, which — shards being contiguous ascending ranges — is the
// lowest invalid node at every shard count.
func (r *shardedRun) outputPhase(s, lo, hi int) {
	if err := collectOutputsRange(r.g, r.a, r.st.nodes, lo, hi, r.outputs); err != nil {
		r.st.stats[s].err = err
	}
}

// sendPhase clears the shard's outbox windows, lets every live node
// write its own window, and counts the non-nil messages. Retired nodes'
// windows stay nil.
func (r *shardedRun) sendPhase(s, lo, hi int) {
	st := r.st
	out := st.outbox[r.off[lo]:r.off[hi]]
	clear(out)
	for v := lo; v < hi; v++ {
		if !st.done[v] {
			st.nodes[v].SendInto(r.round, st.outbox[r.off[v]:r.off[v+1]:r.off[v+1]])
		}
	}
	sent := 0
	for _, m := range out {
		if m != nil {
			sent++
		}
	}
	st.stats[s].sent = sent
}

// recvPhase gathers the shard's inbox slots through the routing table,
// delivers each node's contiguous inbox window, and retires nodes that
// report Done.
func (r *shardedRun) recvPhase(s, lo, hi int) {
	st := r.st
	for j := int(r.off[lo]); j < int(r.off[hi]); j++ {
		st.inbox[j] = st.outbox[r.route[j]]
	}
	pending := 0
	for v := lo; v < hi; v++ {
		if st.done[v] {
			continue
		}
		st.nodes[v].Receive(r.round, st.inbox[r.off[v]:r.off[v+1]:r.off[v+1]])
		if st.nodes[v].Done() {
			st.done[v] = true
		} else {
			pending++
		}
	}
	st.stats[s].pending = pending
}

// firstErr returns the error of the lowest shard that reported one:
// shards are contiguous ascending ranges, so that is the lowest failing
// node at every shard count.
func (r *shardedRun) firstErr() error {
	for s := 0; s < r.p; s++ {
		if err := r.st.stats[s].err; err != nil {
			return err
		}
	}
	return nil
}

// RunSharded executes the algorithm with P shards over the graph's flat
// routing table (P from WithShards, default GOMAXPROCS, at most one per
// node). Nodes are partitioned into contiguous ranges balanced by port
// count; each round runs two phases separated by a barrier:
//
//	send:    every shard writes its nodes' outgoing messages into a flat
//	         outbox indexed by global port number and counts them;
//	receive: every shard gathers its inbox slots through the routing
//	         table (inbox[j] = outbox[route[j]]), delivers each node's
//	         contiguous inbox slice, and retires nodes that report Done.
//
// The prologue and epilogue are sharded too: each shard builds its own
// nodes (Algorithm.BuildNodes, state carved from a per-shard StateArena)
// and collects and validates its own outputs, so setup and teardown
// scale with P instead of serializing around the round loop. With P = 1
// every phase runs inline on the caller's goroutine, exactly as in
// RunSequential.
//
// The two flat arrays, the node and retirement slices, and the shard
// accounting all come from a pooled runState, and the workers persist
// for the whole run, so a steady-state round performs zero allocations:
// nodes write their messages straight into the outbox and the barriers
// are plain channel operations. Results are bit-identical for every
// shard count.
//
// WithRoundHook is honoured: the hook observes the flat outbox through
// per-node subslices, invoked between the send and receive barriers
// where no worker goroutine is running (retired nodes' slots are nil).
func RunSharded(g *graph.Graph, a Algorithm, opts ...Option) (*Result, error) {
	c := buildConfig(opts)
	return run(g, a, &c)
}

// run is the round loop behind both entry points.
func run(g *graph.Graph, a Algorithm, c *config) (*Result, error) {
	if err := c.ctxErr(a); err != nil {
		return nil, err
	}
	n := g.N()
	p := c.shards
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}

	clk := startClock(c)
	st := acquireState(n, g.NumPorts(), p)
	// Release only after the workers have stopped: defers run in LIFO
	// order, so the stop barrier deferred below fences every worker off
	// the buffers before they return to the pool — on every exit path,
	// including cancellation and round-limit errors.
	defer st.release()
	shardBounds(st.bounds, g.PortOffsets(), n, p)

	r := &shardedRun{st: st, g: g, a: a, off: g.PortOffsets(), route: g.RoutingTable(), p: p}
	if p > 1 {
		for s := 0; s < p; s++ {
			go r.worker(s)
		}
		defer r.barrier(phaseStop)
	}

	// Prologue: every shard builds its nodes and retires born-done ones.
	r.barrier(phaseInit)
	if err := r.firstErr(); err != nil {
		return nil, err
	}

	var hookView [][]Message
	if c.roundHook != nil {
		hookView = st.hookRows(r.off, n)
	}

	clk.tickSetup()
	res := &Result{}
	for round := 0; ; round++ {
		if err := c.ctxErr(a); err != nil {
			return nil, err
		}
		pending := 0
		for s := 0; s < p; s++ {
			pending += st.stats[s].pending
		}
		if pending == 0 {
			break
		}
		if round >= c.maxRounds {
			return nil, roundLimit(a, round)
		}
		res.Rounds = round + 1

		r.round = round
		r.barrier(phaseSend)
		for s := 0; s < p; s++ {
			res.Messages += st.stats[s].sent
		}
		if c.roundHook != nil {
			c.roundHook(round, hookView)
		}

		r.barrier(phaseRecv)
	}
	clk.tickRounds()

	// Epilogue: every shard collects and validates its own output range.
	r.outputs = make([][]int, n)
	r.barrier(phaseOutput)
	if err := r.firstErr(); err != nil {
		return nil, err
	}
	res.Outputs = r.outputs
	clk.tickOutputs()
	return res, nil
}

// shardBounds partitions the nodes into p contiguous ranges balanced by
// port count (the unit of per-round work), writing p+1 boundaries into
// bounds. Trailing shards may be empty on degenerate inputs; that only
// idles a worker.
func shardBounds(bounds []int, off []int32, n, p int) {
	total := int(off[n])
	if total == 0 {
		// Port-free graph (isolated nodes): balance by node count.
		for s := 0; s <= p; s++ {
			bounds[s] = s * n / p
		}
		return
	}
	bounds[0] = 0
	v := 0
	for s := 1; s < p; s++ {
		target := total * s / p
		for v < n && int(off[v+1]) <= target {
			v++
		}
		bounds[s] = v
	}
	bounds[p] = n
}
