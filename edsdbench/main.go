// Command edsdbench is the edsd benchmark. For one workload it generates
// the inputs from a seed, serves them through server.New(...).Handler()
// behind loopback httptest servers, checks every response against a
// sequential-engine oracle, and prints the workload's metrics, each
// with its unit, as the last line of its output. Run it from the root
// of the repository:
//
//	bash edsdbench/run.sh --workload miss-oneround --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 repeats the same untraced window for the server-side
// counters, then replays its requests with a span around every layer
// call, prints the per-layer metrics, and writes the spans as JSON
// lines under --spans. README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"eds/internal/graph"
	"eds/internal/sim"
	"eds/internal/spec"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: miss-oneround, miss-multiround or repeat-fleet")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same request bodies and sequences")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.spansDir, "spans", filepath.Join(".bench_build", "edsdbench"), "directory the traced run writes its spans to")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "edsdbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *trace == 1
	o.sizes = fullSizes
	o.setups = 3
	res, err := run(o, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edsdbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edsdbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	sizes    sizes
	setups   int // set-ups per run; setup_s is their median
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts every request of a run, warm-up and traced replay
// included, and keeps the first failures for the report.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) add(outs []outcome) {
	for _, o := range outs {
		t.attempted++
		if o.err != nil {
			t.failed++
			if len(t.errs) < 5 {
				t.errs = append(t.errs, o.err.Error())
			}
		}
	}
}

func flatten(per [][]outcome) (all []outcome, counts []int) {
	for _, outs := range per {
		all = append(all, outs...)
		counts = append(counts, len(outs))
	}
	return all, counts
}

// serveInputs starts the servers and warms them up from the "warmup"
// request stream: each client sends its graphs once, or fills the
// fleet's caches with its share of w.warmup requests.
func serveInputs(w *workload, seed int64, ins []*input, chk *checker, client, fillClient *http.Client, t *tally) (*fleet, []outcome, error) {
	f, err := startFleet(w, fillClient)
	if err != nil {
		return nil, nil, err
	}
	per := make([]int, w.clients)
	for c := range per {
		per[c] = w.warmupPerClient()
	}
	warm, _ := flatten(closedLoop(w, seed, "warmup", httpSend(client, f, ins), chk, "warm", time.Now().Add(time.Hour), per))
	t.add(warm)
	return f, warm, nil
}

func run(o options, stdout, log io.Writer) (*result, error) {
	w, err := newWorkload(o.workload, o.sizes)
	if err != nil {
		return nil, err
	}
	client := newClient(w.clients)
	defer client.CloseIdleConnections()
	fillTr := &http.Transport{DisableCompression: true}
	defer fillTr.CloseIdleConnections()
	var tr *tracer
	fillClient := &http.Client{Transport: fillTr}
	if o.trace {
		tr = newTracer()
		fillClient = &http.Client{Transport: &fillTransport{base: fillTr, t: tr}}
	}
	t := &tally{}

	// Set up several times and keep the last; setup_s is the median.
	var (
		setupS []float64
		ins    []*input
		f      *fleet
		chk    *checker
		warm   []outcome
	)
	for range o.setups {
		if f != nil {
			f.close()
			client.CloseIdleConnections()
			fillTr.CloseIdleConnections()
			ins, f, chk, warm = nil, nil, nil, nil
		}
		runtime.GC()
		start := time.Now()
		if ins, err = w.makeInputs(o.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		chk = newChecker(ins)
		if f, warm, err = serveInputs(w, o.seed, ins, chk, client, fillClient, t); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() { f.close() }()

	// The measured window, untraced.
	runtime.GC()
	before, err := takeSnapshot(f)
	if err != nil {
		return nil, err
	}
	var samp *sampler
	if o.trace {
		samp = startSampler(f, 100*time.Millisecond)
	}
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	outs, perClient := flatten(closedLoop(w, o.seed, "window", httpSend(client, f, ins), chk, "run", start.Add(window), nil))
	elapsed := time.Since(start)
	after, err := takeSnapshot(f)
	if err != nil {
		return nil, err
	}
	if samp != nil {
		if err := samp.finish(); err != nil {
			return nil, err
		}
	}
	t.add(outs)

	var lat []float64
	ok, failed := 0, 0
	outcomes := map[string]float64{}
	keys := map[[2]int]bool{} // distinct canonical keys sent since the servers started
	for _, set := range [][]outcome{warm, outs} {
		for _, oc := range set {
			e := 0
			if oc.r.edges {
				e = 1
			}
			keys[[2]int{oc.r.graph, e}] = true
		}
	}
	for _, oc := range outs {
		lat = append(lat, oc.lat)
		outcomes[oc.xcache]++
		if oc.err != nil {
			failed++
		} else {
			ok++
		}
	}
	okf := float64(ok)
	m := map[string]metric{}
	if !o.trace {
		m["setup_s"] = metric{median(setupS), "s"}
		m["throughput_rps"] = metric{okf / elapsed.Seconds(), "1/s"}
		m["latency_p50_ms"] = metric{percentile(lat, 50), "ms"}
		m["latency_p90_ms"] = metric{percentile(lat, 90), "ms"}
		m["cpu_ms_per_req"] = metric{share(ms(after.cpu-before.cpu), okf), "ms"}
		m["alloc_mb_per_req"] = metric{share(float64(after.allocated-before.allocated)/1e6, okf), "MB"}
	}

	n := float64(len(outs))
	cacheReport := map[string]float64{
		"hit_share":             share(outcomes["hit"], n),
		"fill_share":            share(outcomes["fill"], n),
		"miss_share":            share(outcomes["miss"], n),
		"coalesced_share":       share(outcomes["coalesced"], n),
		"runs_per_distinct_key": share(float64(after.fleet.runs), float64(len(keys))),
	}
	g0 := ins[0].g
	engine := sim.EngineChoice(g0.N(), g0.NumPorts(), runtime.GOMAXPROCS(0))
	shards := 1
	if engine == "sharded" {
		shards = runtime.GOMAXPROCS(0)
	}

	if o.trace {
		for k, v := range cacheReport {
			m["server."+k] = metric{v, "ratio"}
		}
		m["error_rate"] = metric{share(float64(failed), n), "ratio"}
		m["loadgen.latency_samples"] = metric{n, "count"}
		m["loadgen.latency_p99_ms"] = metric{percentile(lat, 99), "ms"}
		depth := 0.0
		for _, d := range samp.depths {
			depth += d
		}
		m["server.queue_depth_mean"] = metric{share(depth, float64(len(samp.depths))), "count"}
		runs := after.fleet.runs - before.fleet.runs
		m["server.statsz_engine_ms"] = metric{share(after.fleet.engineMs-before.fleet.engineMs, float64(runs)), "ms"}
		m["cluster.fills_sent"] = metric{float64(after.fleet.fillsSent - before.fleet.fillsSent), "count"}
		m["cluster.fill_fallbacks"] = metric{float64(after.fleet.fallbacks - before.fleet.fallbacks), "count"}
		local := 0
		for _, oc := range outs {
			if f.clusters == nil {
				local++
			} else if _, self := f.clusters[oc.r.replica].Owner(ins[oc.r.graph].digest[:]); self {
				local++
			}
		}
		m["cluster.owner_local_share"] = metric{share(float64(local), n), "ratio"}
		m["runtime.gc_cycles_per_req"] = metric{share(float64(after.gcCycles-before.gcCycles), okf), "count"}
		m["runtime.gc_cpu_share"] = metric{share(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "ratio"}
		m["runtime.heap_peak_mb"] = metric{float64(samp.heapMax) / 1e6, "MB"}

		if w.replicas > 1 {
			// The window left what it sent cached, so replaying it on the
			// same fleet would hit throughout: replay on a fresh fleet,
			// warmed up like the first.
			f.close()
			if f, _, err = serveInputs(w, o.seed, ins, chk, client, fillClient, t); err != nil {
				return nil, fmt.Errorf("traced set-up: %w", err)
			}
		}
		traced, err := tracedPhase(o, w, tr, f, ins, chk, perClient, percentile(lat, 50), m)
		if err != nil {
			return nil, err
		}
		t.add(traced)
	}

	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
	report := map[string]any{
		"workload": w.name, "seed": o.seed, "trace": o.trace, "seconds": o.seconds,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"cpu_model": cpuModel(), "engine": engine, "shards": shards,
		"setup_s": setupS, "latency_samples": len(outs), "latency_p99_ms": percentile(lat, 99),
		"x_cache": cacheReport, "latency_by_cache": byCache(outs),
		"attempted": t.attempted, "failed": t.failed, "errors": t.errs,
	}
	line, err := json.Marshal(map[string]any{"env": report})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(line))
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "%-28s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return res, nil
}

// tracedPhase replays the window's requests in the same order and
// concurrency with a span around each layer call, writes the spans, and
// adds the per-layer metrics to m. untracedP50 is the window's median
// latency, against which the traced stage sum is set.
func tracedPhase(o options, w *workload, tr *tracer, f *fleet, ins []*input, chk *checker, perClient []int, untracedP50 float64, m map[string]metric) ([]outcome, error) {
	trun := &tracedRun{t: tr, ins: ins}
	serveSpan := "request"
	if w.replicas > 1 {
		trun.f = f
		serveSpan = "server.handler"
	}

	// A reference request on graph 0 opens the replay: core.rounds and
	// core.messages come from its engine run, so they repeat exactly for
	// a seed however far the replay gets.
	var refBody []byte
	var err error
	tr.do("ref", 0, "request", func(root int64) string {
		refBody, err = trun.stages("ref", root, request{graph: 0, edges: w.edgesShare >= 1})
		return "traced"
	})
	if err != nil {
		return nil, fmt.Errorf("traced reference request: %w", err)
	}
	var ref struct{ Rounds, Messages int }
	if err := json.Unmarshal(refBody, &ref); err != nil {
		return nil, err
	}
	if err := chk.check(request{graph: 0, edges: w.edgesShare >= 1}, refBody); err != nil {
		return nil, fmt.Errorf("traced reference request: %w", err)
	}
	m["core.rounds"] = metric{float64(ref.Rounds), "count"}
	m["core.messages"] = metric{float64(ref.Messages), "count"}

	window := time.Duration(o.seconds * float64(time.Second))
	outs, _ := flatten(closedLoop(w, o.seed, "window", trun.send, chk, "traced", time.Now().Add(window*3/2), perClient))

	// Allocation counts of one decode and one warm engine run of graph 0,
	// taken while nothing else runs.
	in := ins[0]
	var g *graph.Graph
	decAllocs, decBytes := allocsOf(func() {
		g, err = graph.ReadGraphLimits(bytes.NewReader(in.canon), graph.Limits{})
	})
	if err != nil {
		return nil, err
	}
	alg, _, err := spec.Algorithm("auto", g)
	if err != nil {
		return nil, err
	}
	runAllocs, _ := allocsOf(func() { _, err = sim.RunAuto(g, alg) })
	if err != nil {
		return nil, err
	}
	m["graph.decode_allocs"] = metric{float64(decAllocs), "count"}
	m["graph.decode_mb"] = metric{float64(decBytes) / 1e6, "MB"}
	m["sim.run_allocs"] = metric{float64(runAllocs), "count"}

	self, total, byOutcome := tr.layerTimes()
	for metricName, spanName := range map[string]string{
		"server.rawkey_ms":     "server.rawkey",
		"graph.decode_ms":      "graph.decode",
		"spec.resolve_ms":      "spec.resolve",
		"graph.digest_ms":      "graph.digest",
		"sim.setup_ms":         "sim.setup",
		"sim.rounds_ms":        "sim.rounds",
		"sim.outputs_ms":       "sim.outputs",
		"server.response_ms":   "server.response",
		"verify.dominating_ms": "verify.dominating",
		"cluster.fill_ms":      "cluster.fill",
	} {
		m[metricName] = metric{median(self[spanName]), "ms"}
	}
	m["sim.run_ms"] = metric{median(total["sim.run"]), "ms"}
	m["sim.ns_per_port_round"] = metric{median(trun.nsPortRound), "ns"}
	for _, oc := range []string{"hit", "fill", "miss"} {
		m["server.handler_"+oc+"_ms"] = metric{median(byOutcome[oc]), "ms"}
	}
	m["trace.unattributed_ms"] = metric{untracedP50 - median(total[serveSpan]), "ms"}

	path := filepath.Join(o.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return outs, nil
}

// byCache summarises the window's latencies per X-Cache outcome: count,
// median and 90th percentile in ms.
func byCache(outs []outcome) map[string][3]float64 {
	lat := map[string][]float64{}
	for _, oc := range outs {
		lat[oc.xcache] = append(lat[oc.xcache], oc.lat)
	}
	out := map[string][3]float64{}
	for k, v := range lat {
		out[k] = [3]float64{float64(len(v)), median(v), percentile(v, 90)}
	}
	return out
}
