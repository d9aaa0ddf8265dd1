// Cross-engine equivalence suite: the paper's algorithms executed on a
// corpus of port-numbered graph families must produce identical Results
// from both entry points of the round loop — the one-shard sequential
// reference and the sharded engine at every shard count — including
// error cases. This is the contract that lets the fast engine stand in
// for the reference on large graphs.
//
// The file lives in package sim_test because it drives the real
// algorithms from internal/core, which itself imports sim.
package sim_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"eds/internal/core"
	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/sim"
)

type engine struct {
	name string
	run  func(*graph.Graph, sim.Algorithm, ...sim.Option) (*sim.Result, error)
}

func engines() []engine {
	return []engine{
		{"sequential", sim.RunSequential},
		{"sharded", sim.RunSharded},
	}
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// equivalenceCorpus is the graph corpus of the suite: the deterministic
// classic families plus seeded random regular / bounded-degree graphs and
// a multigraph with loops and parallel edges.
func equivalenceCorpus(t testing.TB) []namedGraph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	gs := []namedGraph{
		{"Cycle/9", gen.Cycle(9)},
		{"Path/12", gen.Path(12)},
		{"Complete/7", gen.Complete(7)},
		{"Hypercube/3", gen.Hypercube(3)},
		{"Torus/3x4", gen.Torus(3, 4)},
		{"RandomRegular/n=20,d=3", gen.MustRandomRegular(rng, 20, 3)},
		{"RandomRegular/n=16,d=4", gen.MustRandomRegular(rng, 16, 4)},
		{"RandomBoundedDegree/n=24,delta=4", gen.RandomBoundedDegree(rng, 24, 4, 0.4)},
		{"Multigraph/loops", multigraph()},
	}
	return gs
}

// multigraph exercises undirected loops, a directed loop, and parallel
// edges in one instance.
func multigraph() *graph.Graph {
	b := graph.NewBuilder(3)
	b.MustConnect(0, 1, 0, 2) // undirected loop
	b.MustConnect(0, 3, 0, 3) // directed loop
	b.MustConnect(0, 4, 1, 1)
	b.MustConnect(0, 5, 1, 2) // parallel edge
	b.MustConnect(1, 3, 2, 1)
	b.MustConnect(2, 2, 2, 3) // undirected loop on 2
	return b.MustBuild()
}

// algorithmsFor returns the paper's full algorithm set instantiated for
// the graph. Algorithms run even on families outside their guarantee
// (e.g. RegularOdd on an irregular graph): the output need not be a good
// edge dominating set, but every engine must still compute the same one.
func algorithmsFor(g *graph.Graph) []sim.Algorithm {
	delta := g.MaxDegree()
	if delta < 2 {
		delta = 2
	}
	return []sim.Algorithm{
		core.PortOne{},
		core.RegularOdd{},
		core.NewGeneral(delta),
		core.AllEdges{},
	}
}

// TestCrossEngineEquivalence runs every algorithm on every corpus graph
// with both engines and demands identical Outputs, Rounds, Messages
// — or identical errors.
func TestCrossEngineEquivalence(t *testing.T) {
	for _, ng := range equivalenceCorpus(t) {
		for _, alg := range algorithmsFor(ng.g) {
			t.Run(ng.name+"/"+alg.Name(), func(t *testing.T) {
				ref, refErr := sim.RunSequential(ng.g, alg)
				for _, e := range engines()[1:] {
					res, err := e.run(ng.g, alg)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("%s: err = %v, sequential err = %v", e.name, err, refErr)
					}
					if err != nil {
						if err.Error() != refErr.Error() {
							t.Fatalf("%s: err %q, sequential err %q", e.name, err, refErr)
						}
						continue
					}
					if !reflect.DeepEqual(res.Outputs, ref.Outputs) {
						t.Errorf("%s: Outputs diverge from sequential", e.name)
					}
					if res.Rounds != ref.Rounds {
						t.Errorf("%s: Rounds = %d, sequential %d", e.name, res.Rounds, ref.Rounds)
					}
					if res.Messages != ref.Messages {
						t.Errorf("%s: Messages = %d, sequential %d", e.name, res.Messages, ref.Messages)
					}
				}
			})
		}
	}
}

// TestShardCountInvariance fixes the workload and sweeps the shard count:
// 1, 2, NumCPU, and one shard per node must all reproduce the sequential
// result exactly. Run under -race this also proves phase isolation.
func TestShardCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.MustRandomRegular(rng, 30, 3)
	counts := []int{1, 2, runtime.NumCPU(), g.N()}
	for _, alg := range algorithmsFor(g) {
		ref, err := sim.RunSequential(g, alg)
		if err != nil {
			t.Fatalf("sequential %s: %v", alg.Name(), err)
		}
		for _, p := range counts {
			res, err := sim.RunSharded(g, alg, sim.WithShards(p))
			if err != nil {
				t.Fatalf("sharded %s shards=%d: %v", alg.Name(), p, err)
			}
			if !reflect.DeepEqual(res.Outputs, ref.Outputs) ||
				res.Rounds != ref.Rounds || res.Messages != ref.Messages {
				t.Errorf("%s: shards=%d diverges from sequential", alg.Name(), p)
			}
		}
	}
}

// TestTraceCrossEngineEquivalence runs every corpus workload with a
// trace attached on both hook-capable engines and demands the identical
// round-by-round profile. This is the contract that lets -profile and
// the figures pipeline use the sharded engine on graphs too large for
// the sequential reference.
func TestTraceCrossEngineEquivalence(t *testing.T) {
	for _, ng := range equivalenceCorpus(t) {
		for _, alg := range algorithmsFor(ng.g) {
			t.Run(ng.name+"/"+alg.Name(), func(t *testing.T) {
				seqTrace, seqOpt := sim.NewTrace()
				if _, err := sim.RunSequential(ng.g, alg, seqOpt); err != nil {
					t.Fatalf("sequential: %v", err)
				}
				shTrace, shOpt := sim.NewTrace()
				if _, err := sim.RunSharded(ng.g, alg, shOpt, sim.WithShards(runtime.NumCPU())); err != nil {
					t.Fatalf("sharded: %v", err)
				}
				if !reflect.DeepEqual(seqTrace.Rounds, shTrace.Rounds) {
					t.Errorf("traces diverge:\nsequential: %v\nsharded:    %v", seqTrace.Rounds, shTrace.Rounds)
				}
			})
		}
	}
}

// TestAutoHonoursHookAboveThreshold pins the fix for the silent
// fallback: RunAuto above AutoShardedThreshold used to reroute hooked
// runs to the sequential engine because the sharded engine dropped the
// hook. Now the sharded engine drives the hook itself, so an auto run on
// a large graph must produce the full trace.
func TestAutoHonoursHookAboveThreshold(t *testing.T) {
	n := sim.AutoShardedPorts // cycle: 2n ports, comfortably above the cutover
	g := gen.Cycle(n)
	tr, opt := sim.NewTrace()
	res, err := sim.RunAuto(g, core.PortOne{}, opt)
	if err != nil {
		t.Fatalf("RunAuto: %v", err)
	}
	if len(tr.Rounds) != res.Rounds {
		t.Fatalf("trace has %d rounds, result says %d", len(tr.Rounds), res.Rounds)
	}
	if tr.TotalMessages() != res.Messages {
		t.Fatalf("trace counted %d messages, result says %d", tr.TotalMessages(), res.Messages)
	}
	// Cross-check against the sequential reference on the same graph.
	refTrace, refOpt := sim.NewTrace()
	if _, err := sim.RunSequential(g, core.PortOne{}, refOpt); err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if !reflect.DeepEqual(refTrace.Rounds, tr.Rounds) {
		t.Errorf("auto trace diverges from sequential reference")
	}
}

// cancelSendAlg never terminates on its own but cancels the attached
// context from SendInto at a fixed round — a deterministic mid-run
// cancellation point that exists identically in every engine.
func cancelSendAlg(cancel context.CancelFunc, atRound int) sim.Algorithm {
	return sim.PerNode{Label: "cancel-send", New: func(int) sim.Node {
		return cancelSendNode{cancel: cancel, atRound: atRound}
	}}
}

type cancelSendNode struct {
	cancel  context.CancelFunc
	atRound int
}

func (n cancelSendNode) SendInto(round int, buf []sim.Message) {
	if round >= n.atRound {
		n.cancel()
	}
}
func (n cancelSendNode) Receive(round int, inbox []sim.Message) {}
func (n cancelSendNode) Done() bool                             { return false }
func (n cancelSendNode) AppendOutput(dst []int) []int           { return dst }

// awaitBaselineGoroutines waits for the goroutine count to return to the
// pre-run baseline, failing the test if it does not: a canceled engine
// must not leak its workers.
func awaitBaselineGoroutines(t *testing.T, label string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines still alive, baseline %d", label, runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancellationParity checks the WithContext contract on both
// engines: cancel-before-start, cancel-mid-run, and deadline-exceeded
// must surface the identical error (wrapping ErrCanceled plus the
// context cause) from every engine, return no Result, and leak no
// goroutines. Run under -race this also proves the cancellation path is
// race-free.
func TestCancellationParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gen.MustRandomRegular(rng, 20, 3)

	check := func(t *testing.T, mkCtx func() context.Context, mkAlg func(context.CancelFunc) sim.Algorithm,
		wantCause error, opts ...sim.Option) {
		t.Helper()
		base := runtime.NumGoroutine()
		var msgs []string
		for _, e := range engines() {
			ctx := mkCtx()
			cancel := func() {}
			var alg sim.Algorithm = stuckAlg
			if mkAlg != nil {
				var ccancel context.CancelFunc
				ctx, ccancel = context.WithCancel(ctx)
				alg = mkAlg(ccancel)
				cancel = ccancel
			}
			res, err := e.run(g, alg, append([]sim.Option{sim.WithContext(ctx)}, opts...)...)
			cancel()
			if res != nil {
				t.Errorf("%s: got a Result alongside cancellation", e.name)
			}
			if !errors.Is(err, sim.ErrCanceled) {
				t.Fatalf("%s: err = %v, want ErrCanceled", e.name, err)
			}
			if wantCause != nil && !errors.Is(err, wantCause) {
				t.Errorf("%s: err = %v, want cause %v", e.name, err, wantCause)
			}
			msgs = append(msgs, err.Error())
			awaitBaselineGoroutines(t, e.name, base)
		}
		for _, m := range msgs[1:] {
			if m != msgs[0] {
				t.Errorf("cancellation errors differ across engines: %q vs %q", msgs[0], m)
			}
		}
	}

	t.Run("CancelBeforeStart", func(t *testing.T) {
		check(t, func() context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx
		}, nil, context.Canceled)
	})
	t.Run("DeadlineAlreadyExceeded", func(t *testing.T) {
		check(t, func() context.Context {
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			_ = cancel // ctx is already expired; engines never see Done undone
			return ctx
		}, nil, context.DeadlineExceeded)
	})
	t.Run("CancelMidRun", func(t *testing.T) {
		check(t, context.Background,
			func(cancel context.CancelFunc) sim.Algorithm {
				return cancelSendAlg(cancel, 3)
			}, context.Canceled)
	})
	t.Run("DeadlineMidRun", func(t *testing.T) {
		// A live deadline against an algorithm that never terminates:
		// each engine must notice at a round barrier and return well
		// within the test's patience, not after 100k rounds.
		base := runtime.NumGoroutine()
		for _, e := range engines() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			start := time.Now()
			_, err := e.run(g, stuckAlg, sim.WithContext(ctx), sim.WithMaxRounds(1<<30))
			elapsed := time.Since(start)
			cancel()
			if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s: err = %v, want ErrCanceled wrapping DeadlineExceeded", e.name, err)
			}
			if elapsed > 5*time.Second {
				t.Errorf("%s: took %v to notice a 30ms deadline", e.name, elapsed)
			}
			awaitBaselineGoroutines(t, e.name, base)
		}
	})
}

// stuckAlg never terminates; every engine must surface ErrRoundLimit.
var stuckAlg = sim.PerNode{Label: "stuck", New: func(int) sim.Node { return stuckNode{} }}

type stuckNode struct{}

func (stuckNode) SendInto(round int, buf []sim.Message)  {}
func (stuckNode) Receive(round int, inbox []sim.Message) {}
func (stuckNode) Done() bool                             { return false }
func (stuckNode) AppendOutput(dst []int) []int           { return dst }

// nilNodeAlg leaves node 2 unbuilt: every engine and shard count must
// report the same construction error, naming that node.
type nilNodeAlg struct{}

func (nilNodeAlg) Name() string { return "nil-node" }
func (nilNodeAlg) BuildNodes(g *graph.Graph, lo, hi int, arena *sim.StateArena, nodes []sim.Node) {
	for v := lo; v < hi; v++ {
		if v != 2 {
			nodes[v-lo] = stuckNode{}
		}
	}
}

// TestEngineErrorParity checks that the failure modes surface identically
// from every engine: the round budget as ErrRoundLimit, and a node that
// BuildNodes left unset as an error naming it — never a panic.
func TestEngineErrorParity(t *testing.T) {
	t.Run("RoundLimit", func(t *testing.T) {
		g := gen.Cycle(6)
		var msgs []string
		for _, e := range engines() {
			_, err := e.run(g, stuckAlg, sim.WithMaxRounds(10))
			if !errors.Is(err, sim.ErrRoundLimit) {
				t.Fatalf("%s: err = %v, want ErrRoundLimit", e.name, err)
			}
			msgs = append(msgs, err.Error())
		}
		for _, m := range msgs[1:] {
			if m != msgs[0] {
				t.Errorf("round-limit errors differ: %q vs %q", msgs[0], m)
			}
		}
	})
	t.Run("NilNode", func(t *testing.T) {
		g := gen.Cycle(6)
		const want = `sim: algorithm "nil-node": BuildNodes left node 2 nil`
		for _, e := range engines() {
			for _, p := range []int{1, 2, g.N()} {
				_, err := e.run(g, nilNodeAlg{}, sim.WithShards(p))
				if err == nil || err.Error() != want {
					t.Errorf("%s shards=%d: err = %v, want %q", e.name, p, err, want)
				}
			}
		}
	})
}
