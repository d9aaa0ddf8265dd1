package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/sim"
	"eds/internal/spec"
	"eds/internal/verify"
)

// sizes fixes the input sizes of every workload. The benchmark runs at
// fullSizes; the self-test shrinks them so each workload runs in a
// second.
type sizes struct {
	oneN, multiN, fleetN int
	fleetGraphs          int
	fleetWarmup          int // requests sent before the window
}

var fullSizes = sizes{oneN: 100_000, multiN: 25_000, fleetN: 10_000, fleetGraphs: 32, fleetWarmup: 800}

// workload is one traffic mix: which graphs exist, how requests pick
// among them, and which server topology answers them. README.md records
// why each one exists.
type workload struct {
	name     string
	replicas int // 1: one server; >1: a cluster.New fleet
	cache    int // server.Config.CacheEntries (-1 turns the cache off)

	// Every workload is a closed loop of clients clients. With zipf 0
	// each client cycles through its own graphs/clients graphs in
	// canonical form, with edges=1 iff edgesShare is 1. Otherwise each
	// client draws Zipf(zipf)-skewed graphs, a uniform replica, the
	// commented form with probability commented, and edges=1 with
	// probability edgesShare; warmup such requests precede the window.
	clients    int
	zipf       float64
	warmup     int
	graphs     int
	edgesShare float64
	commented  float64

	makeGraph func(rng *rand.Rand, i int) (*graph.Graph, error)
}

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"miss-oneround", "miss-multiround", "repeat-fleet"}

func newWorkload(name string, sz sizes) (*workload, error) {
	switch name {
	case "miss-oneround":
		return &workload{
			name: name, replicas: 1, cache: -1, clients: 2, graphs: 4, edgesShare: 1,
			makeGraph: func(rng *rand.Rand, _ int) (*graph.Graph, error) {
				return gen.RandomRegular(rng, sz.oneN, 4)
			},
		}, nil
	case "miss-multiround":
		return &workload{
			name: name, replicas: 1, cache: -1, clients: 2, graphs: 4, edgesShare: 0,
			makeGraph: func(rng *rand.Rand, _ int) (*graph.Graph, error) {
				return thinnedRegular(rng, sz.multiN, 5, 0.2)
			},
		}, nil
	case "repeat-fleet":
		return &workload{
			name: name, replicas: 2, cache: 0, clients: 2, zipf: 1.1, warmup: sz.fleetWarmup,
			graphs: sz.fleetGraphs, edgesShare: 0.25, commented: 0.3,
			makeGraph: func(rng *rand.Rand, i int) (*graph.Graph, error) {
				return gen.RandomRegular(rng, sz.fleetN, 3+i%2)
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// thinnedRegular is a random d-regular graph with a share drop of its
// edges removed at random: irregular, so alg=auto resolves it to the
// general algorithm, whose round count depends only on the maximum
// degree d.
func thinnedRegular(rng *rand.Rand, n, d int, drop float64) (*graph.Graph, error) {
	reg, err := gen.RandomRegular(rng, n, d)
	if err != nil {
		return nil, err
	}
	pairs := make([][2]int, 0, reg.M())
	for _, e := range reg.Edges() {
		pairs = append(pairs, [2]int{e.U(), e.V()})
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	g, err := graph.FromUndirected(n, pairs[:len(pairs)-int(drop*float64(len(pairs)))])
	if err != nil {
		return nil, err
	}
	if _, regular := g.Regular(); regular || g.MaxDegree() != d {
		return nil, fmt.Errorf("thinned %d-regular graph on %d nodes kept max degree %d (regular=%v)", d, n, g.MaxDegree(), regular)
	}
	return g, nil
}

// input is one distinct graph: its wire forms and its oracle result.
type input struct {
	g         *graph.Graph
	canon     []byte // WriteTo output
	commented []byte // the same graph commented and reordered; nil if unused
	digest    [graph.DigestSize]byte
	// The oracle: the sequential engine's result on g.
	alg              string
	rounds, messages int
	set              *graph.EdgeSet // verified dominating
}

// request is one request of a client's sequence. A request with a tag
// sends the commented form behind a comment line naming the tag, so its
// raw bytes are its own while it decodes to the same graph as every
// other form.
type request struct {
	replica int
	graph   int
	tag     string
	edges   bool
}

// parts returns the request body as a head and a shared tail.
func (r request) parts(in *input) (head, tail []byte) {
	if r.tag == "" {
		return nil, in.canon
	}
	return []byte("# request " + r.tag + "\n"), in.commented
}

// body returns the request body as one slice.
func (r request) body(in *input) []byte {
	head, tail := r.parts(in)
	if head == nil {
		return tail
	}
	return append(head, tail...)
}

// mix derives an independent stream seed from the workload seed.
func mix(seed int64, stream string, i int) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d", seed, stream, i)))
	var v int64
	for _, b := range h[:8] {
		v = v<<8 | int64(b)
	}
	return v
}

// makeInputs generates every distinct graph of the workload, encodes its
// wire forms, and computes its reference result with the sequential
// engine. The same seed gives byte-identical bodies.
func (w *workload) makeInputs(seed int64) ([]*input, error) {
	ins := make([]*input, w.graphs)
	errs := make([]error, w.graphs)
	// Two generators: the graphs are independent, and each one's bytes
	// depend only on its own stream, so the result does not depend on
	// which goroutine made it.
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < w.graphs; i = int(next.Add(1) - 1) {
				ins[i], errs[i] = w.makeInput(seed, i)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return ins, nil
}

func (w *workload) makeInput(seed int64, i int) (*input, error) {
	rng := rand.New(rand.NewSource(mix(seed, w.name+"/graph", i)))
	g, err := w.makeGraph(rng, i)
	if err != nil {
		return nil, fmt.Errorf("graph %d: %w", i, err)
	}
	in := &input{g: g, digest: graph.Digest(g)}
	var canon bytes.Buffer
	if err := graph.WriteTo(&canon, g); err != nil {
		return nil, fmt.Errorf("graph %d: encoding: %w", i, err)
	}
	in.canon = canon.Bytes()
	if w.commented > 0 {
		in.commented = commentedForm(rng, in.canon)
	}
	alg, _, err := spec.Algorithm("auto", g)
	if err != nil {
		return nil, fmt.Errorf("graph %d: %w", i, err)
	}
	in.alg = alg.Name()
	res, err := sim.RunSequential(g, alg)
	if err != nil {
		return nil, fmt.Errorf("graph %d: oracle run: %w", i, err)
	}
	in.rounds, in.messages = res.Rounds, res.Messages
	if in.set, err = sim.EdgeSet(g, res.Outputs); err != nil {
		return nil, fmt.Errorf("graph %d: oracle edge set: %w", i, err)
	}
	if !verify.IsEdgeDominatingSet(g, in.set) {
		return nil, fmt.Errorf("graph %d: oracle result is not an edge dominating set", i)
	}
	return in, nil
}

// commentedForm rewrites a canonical body into an equivalent one that is
// byte-different: a comment header, the conn lines shuffled, extra
// spaces, and a comment every 64 lines. It decodes to the same graph, so
// the server's raw key misses and its canonical key can hit.
func commentedForm(rng *rand.Rand, canon []byte) []byte {
	lines := strings.Split(strings.TrimSuffix(string(canon), "\n"), "\n")
	conns := lines[1:]
	rng.Shuffle(len(conns), func(i, j int) { conns[i], conns[j] = conns[j], conns[i] })
	var b strings.Builder
	b.WriteString("# edsdbench: commented, reordered wire form\n")
	b.WriteString(lines[0] + "\n")
	for k, l := range conns {
		if k%64 == 0 {
			fmt.Fprintf(&b, "# block %d\n", k/64)
		}
		b.WriteString("  " + strings.Replace(l, " ", "  ", 1) + "\n")
	}
	return []byte(b.String())
}

// requests returns client c's request sequence for the named stream
// as a generator; the same seed, stream and client give the same
// sequence. With zipf 0 the client cycles through its own share of the
// graphs, so no two in-flight requests are identical and none
// coalesce.
func (w *workload) requests(seed int64, stream string, c int) func() request {
	k := 0
	if w.zipf == 0 {
		per := w.graphs / w.clients
		return func() request {
			k++
			return request{graph: c*per + (k-1)%per, edges: w.edgesShare >= 1}
		}
	}
	rng := rand.New(rand.NewSource(mix(seed, fmt.Sprintf("%s/%s/client", w.name, stream), c)))
	zipf := rand.NewZipf(rng, w.zipf, 1, uint64(w.graphs-1))
	return func() request {
		k++
		r := request{replica: rng.Intn(w.replicas), graph: int(zipf.Uint64())}
		if rng.Float64() < w.commented {
			r.tag = fmt.Sprintf("%d-%s-c%d-%d", seed, stream, c, k-1)
		}
		r.edges = rng.Float64() < w.edgesShare
		return r
	}
}

// warmupPerClient is how many requests each client sends before the
// window: each of its graphs once, or its share of w.warmup.
func (w *workload) warmupPerClient() int {
	if w.zipf == 0 {
		return w.graphs / w.clients
	}
	return w.warmup / w.clients
}
