// Command edsbench gates the repo's allocation regressions: it parses
// `go test -benchmem` output, diffs every benchmark's allocs/op against
// the committed BENCH_baseline.json, and fails when an entry grew
// beyond tolerance. ns/op and B/op are recorded for context but never
// gated — they move with the host; the allocation counts are the
// machine-independent contract (steady-state rounds are pinned at 0 by
// the internal/sim regression tests, so everything here is per-run
// construction cost).
//
// Usage:
//
//	go test -short -run='^$' -bench='BenchmarkEngines|BenchmarkSharded' -benchmem -benchtime=5x . | go run ./cmd/edsbench
//	go run ./cmd/edsbench bench-output.txt
//	go run ./cmd/edsbench -update bench-output.txt   # refresh the baseline
//
// An entry fails when its allocs/op exceed baseline×(1+tolerance) +
// coldSlack. The baseline records the GOMAXPROCS it was taken with,
// because the sharded engine's allocs/op grow with its shard count.
//
// When gating, benchmarks present in the input but absent from the
// baseline are ignored (the baseline names what is gated); baseline
// entries missing from the input fail the gate, so the baseline cannot
// silently rot when a benchmark is renamed or deleted. -update rewrites
// the baseline to exactly the benchmarks in its input, so feed it the
// output of regenerateCommand, which runs every gated benchmark.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Baseline mirrors BENCH_baseline.json.
type Baseline struct {
	Comment    string  `json:"_comment"`
	Generated  string  `json:"generated"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	Benchtime  string  `json:"benchtime"`
	Gomaxprocs int     `json:"gomaxprocs"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Bench is one recorded benchmark result.
type Bench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Nodes       int     `json:"nodes,omitempty"`
	Rounds      int     `json:"rounds,omitempty"`
}

// gomaxprocsSuffix strips the trailing "-N" GOMAXPROCS marker go test
// appends to benchmark names, so results diff stably across core counts.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// coldSlack is the absolute allocs/op growth allowed on top of the
// relative tolerance. CI gates a cold -benchtime=1x run against a warm
// baseline: its single iteration pays the first-run costs the baseline's
// later iterations do not (compiling an algorithm's program, filling the
// run-state pool and its arenas), and the sharded engine pays them once
// per shard, so a runner with more CPUs than the baseline host pays
// more. Cold -benchtime=1x runs of the gated benchmarks on a 2-CPU
// host, at -cpu=1, 2 and 4, exceeded the baseline by at most 283
// allocs/op (BenchmarkEngines/Sequential: 300 against 17); the sharded
// entries grew about 45 allocs/op per shard (RandomRegular at -cpu=4:
// 222 against 63). 1024 covers runners up to about 20 CPUs. An O(n)
// regression on the gated 100k-node runs is hundreds of times larger.
const coldSlack = 1024

// parseBench parses one `go test -bench -benchmem` result line, e.g.
//
//	BenchmarkSharded/Cycle/n=100k/sharded-8  5  42791983 ns/op  21800513 B/op  800005 allocs/op  100000 nodes  1.000 rounds
//
// Returns ok=false for non-benchmark lines (headers, PASS, ok, skips).
func parseBench(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Bench{}, false
	}
	b := Bench{Name: gomaxprocsSuffix.ReplaceAllString(fields[0], "")}
	// fields[1] is the iteration count; after it come value/unit pairs.
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = val
			seen = true
		case "B/op":
			b.BytesPerOp = int64(val)
		case "allocs/op":
			b.AllocsPerOp = int64(val)
			seen = true
		case "nodes":
			b.Nodes = int(val)
		case "rounds":
			b.Rounds = int(val)
		}
	}
	return b, seen
}

// parseOutput scans full `go test` output and returns every benchmark
// result plus the reported CPU model (from the "cpu:" header), keyed by
// stripped name. A benchmark that appears twice keeps the last result.
// procs is the GOMAXPROCS of the run, read from the name suffix go test
// appends (no suffix means 1).
func parseOutput(r io.Reader) (results map[string]Bench, cpu string, procs int, err error) {
	results = map[string]Bench{}
	procs = 1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		if b, ok := parseBench(line); ok {
			results[b.Name] = b
			if m := gomaxprocsSuffix.FindString(strings.Fields(line)[0]); m != "" {
				procs, _ = strconv.Atoi(m[1:])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, "", 0, err
	}
	return results, cpu, procs, nil
}

// diff compares measured results against the baseline and returns one
// human-readable problem per violated entry. Growth beyond
// want*(1+tolerance)+coldSlack fails; shrinkage never does (refresh the
// baseline with -update to bank an improvement).
func diff(baseline []Bench, got map[string]Bench, tolerance float64) []string {
	var problems []string
	for _, want := range baseline {
		g, ok := got[want.Name]
		if !ok {
			problems = append(problems,
				fmt.Sprintf("%s: in baseline but not in the benchmark output — renamed or deleted? refresh with -update", want.Name))
			continue
		}
		ceiling := int64(float64(want.AllocsPerOp)*(1+tolerance)) + coldSlack
		if g.AllocsPerOp > ceiling {
			problems = append(problems,
				fmt.Sprintf("%s: allocs/op grew %d → %d (ceiling %d = baseline +%.0f%% +%d)",
					want.Name, want.AllocsPerOp, g.AllocsPerOp, ceiling, tolerance*100, coldSlack))
		}
	}
	return problems
}

// regenerateCommand produces the benchmark output the committed baseline
// is regenerated from. Its -bench pattern and package list must cover
// every gated benchmark: -update drops baseline entries its input lacks.
const regenerateCommand = "go test -short -run='^$' " +
	"-bench='^(BenchmarkEngines|BenchmarkSharded|BenchmarkFlightJoinFinish|BenchmarkBatchedRun|BenchmarkDecode)$' " +
	"-benchmem -benchtime=5x . ./internal/server ./internal/graph | go run ./cmd/edsbench -update"

// regenerate builds a fresh baseline from measured results: the
// baseline's benchmarks that were measured, in the baseline's order,
// then benchmarks new to the baseline, by name. It also returns the
// names of baseline entries the results lack, which the fresh baseline
// no longer gates.
func regenerate(old *Baseline, got map[string]Bench, cpu string, procs int, benchtime string) (fresh *Baseline, dropped []string) {
	fresh = &Baseline{
		Comment: "Baseline snapshot of the engine, server and decoder benchmarks; allocs_per_op is the gated number (ns/op moves with the host). " +
			"Regenerate with: " + regenerateCommand + " " +
			"— steady-state rounds are pinned at 0 allocations by TestEngineRoundsAllocationFree and TestMigratedAlgorithmsZeroAllocSteadyState, " +
			"full-run construction is pinned O(1) by TestSetupAllocationBudget, and decoding by TestDecodeAllocationBudget, " +
			"so every alloc here is per-run slab, Result or graph assembly.",
		Generated:  time.Now().Format("2006-01-02"),
		Go:         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        cpu,
		Benchtime:  benchtime,
		Gomaxprocs: procs,
	}
	if fresh.CPU == "" {
		fresh.CPU = old.CPU
	}
	known := make(map[string]bool, len(old.Benchmarks))
	for _, want := range old.Benchmarks {
		known[want.Name] = true
		if g, ok := got[want.Name]; ok {
			fresh.Benchmarks = append(fresh.Benchmarks, g)
		} else {
			dropped = append(dropped, want.Name)
		}
	}
	var added []Bench
	for name, g := range got {
		if !known[name] {
			added = append(added, g)
		}
	}
	sort.Slice(added, func(i, j int) bool { return added[i].Name < added[j].Name })
	fresh.Benchmarks = append(fresh.Benchmarks, added...)
	return fresh, dropped
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "path to the committed baseline")
	tolerance := fs.Float64("tolerance", 0.25, "relative allocs/op growth allowed before failing")
	update := fs.Bool("update", false, "rewrite the baseline from the measured results instead of gating")
	benchtime := fs.String("benchtime", "5x", "benchtime recorded in a regenerated baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		in = f
	}
	got, cpu, procs, err := parseOutput(in)
	if err != nil {
		fmt.Fprintf(stderr, "edsbench: reading benchmark output: %v\n", err)
		return 2
	}
	if len(got) == 0 {
		fmt.Fprintln(stderr, "edsbench: no benchmark results in input (did you pass -bench and -benchmem?)")
		return 2
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "edsbench: %v\n", err)
		return 2
	}
	var baseline Baseline
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fmt.Fprintf(stderr, "edsbench: parsing %s: %v\n", *baselinePath, err)
		return 2
	}

	if *update {
		fresh, dropped := regenerate(&baseline, got, cpu, procs, *benchtime)
		for _, name := range dropped {
			fmt.Fprintf(stderr, "edsbench: %s is not in the benchmark output and is no longer gated\n", name)
		}
		out, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "edsbench: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "edsbench: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "edsbench: wrote %s (%d benchmarks)\n", *baselinePath, len(fresh.Benchmarks))
		return 0
	}

	if baseline.Gomaxprocs != 0 && baseline.Gomaxprocs != procs {
		fmt.Fprintf(stderr, "edsbench: note: baseline taken at GOMAXPROCS=%d, this run at %d; sharded allocs/op scale with it\n",
			baseline.Gomaxprocs, procs)
	}
	problems := diff(baseline.Benchmarks, got, *tolerance)
	for _, p := range problems {
		fmt.Fprintf(stderr, "edsbench: FAIL %s\n", p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(stderr, "edsbench: %d allocation regression(s) against %s\n", len(problems), *baselinePath)
		return 1
	}
	fmt.Fprintf(stdout, "edsbench: OK — %d gated benchmarks within allocs/op ceilings (tolerance %.0f%% + %d)\n",
		len(baseline.Benchmarks), *tolerance*100, coldSlack)
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
