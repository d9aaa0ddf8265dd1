package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// testSizes shrinks every workload so a run takes about a second. The
// fleet warms up with few requests, so fills and misses still occur in
// the window.
var testSizes = sizes{oneN: 2000, multiN: 1000, fleetN: 400, fleetGraphs: 16, fleetWarmup: 20}

// inputsDigest hashes a workload's request bodies and its request
// sequences for one seed.
func inputsDigest(t *testing.T, w *workload, seed int64) [sha256.Size]byte {
	t.Helper()
	ins, err := w.makeInputs(seed)
	if err != nil {
		t.Fatalf("%s: makeInputs(%d): %v", w.name, seed, err)
	}
	h := sha256.New()
	for _, in := range ins {
		h.Write(in.canon)
		h.Write(in.commented)
	}
	for _, stream := range []string{"warmup", "window"} {
		for c := range w.clients {
			next := w.requests(seed, stream, c)
			for range 64 {
				fmt.Fprintf(h, "%+v\n", next())
			}
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func TestInputsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, testSizes)
		if err != nil {
			t.Fatal(err)
		}
		a, b := inputsDigest(t, w, 7), inputsDigest(t, w, 7)
		if a != b {
			t.Errorf("%s: seed 7 gave different request bodies or sequences on two calls", name)
		}
		if inputsDigest(t, w, 8) == a {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

// benchmarkSpec reads the metric names and units BENCHMARK.json
// declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// spanNames reads a span file and returns how many spans carry each
// name, and each server.handler span also under "server.handler/" plus
// its X-Cache outcome, failing on a span without a request ID or with an unknown
// parent.
func spanNames(t *testing.T, path string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	ids := map[int64]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	names := map[string]int{}
	for _, s := range spans {
		if s.Req == "" || s.End < s.Start || (s.Parent != 0 && !ids[s.Parent]) {
			t.Errorf("%s: malformed span %+v", path, s)
		}
		names[s.Name]++
		if s.Name == "server.handler" {
			names[s.Name+"/"+s.Note]++
		}
	}
	return names
}

func TestWorkloadsRun(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	stageSpans := []string{"request", "server.rawkey", "graph.decode", "spec.resolve", "graph.digest",
		"sim.run", "sim.setup", "sim.rounds", "sim.outputs", "server.response", "verify.dominating"}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var core []float64
			for i, trace := range []bool{false, true, true} {
				dir := t.TempDir()
				o := options{workload: name, seed: 3, seconds: 1, trace: trace, spansDir: dir, sizes: testSizes, setups: 1}
				res, err := run(o, io.Discard, io.Discard)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("run %d: correct=%v attempted=%d failed=%d", i, res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				for metricName, unit := range want {
					got, ok := res.Metrics[metricName]
					if !ok {
						t.Errorf("run %d: metric %s missing", i, metricName)
					} else if got.Unit != unit {
						t.Errorf("run %d: metric %s has unit %q, BENCHMARK.json says %q", i, metricName, got.Unit, unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("run %d: %d metrics printed, BENCHMARK.json names %d", i, len(res.Metrics), len(want))
				}
				if !trace {
					continue
				}
				if v := res.Metrics["error_rate"].Value; v != 0 {
					t.Errorf("run %d: error_rate %v", i, v)
				}
				core = append(core, res.Metrics["core.rounds"].Value, res.Metrics["core.messages"].Value)
				names := spanNames(t, filepath.Join(dir, fmt.Sprintf("spans-%s-seed3.jsonl", name)))
				want2 := slices.Clone(stageSpans)
				if name == "repeat-fleet" {
					want2 = append(want2, "server.handler")
					if names["server.handler/fill"] > 0 {
						want2 = append(want2, "cluster.fill")
					}
				}
				for _, s := range want2 {
					if names[s] == 0 {
						t.Errorf("run %d: no %s span", i, s)
					}
				}
			}
			if core[0] != core[2] || core[1] != core[3] || core[0] == 0 || core[1] == 0 {
				t.Errorf("core.rounds/core.messages differ between two traced runs of one seed: %v", core)
			}
		})
	}
}
