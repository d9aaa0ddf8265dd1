package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	cases := []struct {
		name string
		line string
		want Bench
		ok   bool
	}{
		{
			"full benchmem line with custom metrics",
			"BenchmarkSharded/Cycle/n=100k/sharded-8  \t5\t  42791983 ns/op\t21800513 B/op\t  800005 allocs/op\t100000 nodes\t1.000 rounds",
			Bench{Name: "BenchmarkSharded/Cycle/n=100k/sharded", NsPerOp: 42791983, BytesPerOp: 21800513, AllocsPerOp: 800005, Nodes: 100000, Rounds: 1},
			true,
		},
		{
			"gomaxprocs suffix stripped, no custom metrics",
			"BenchmarkEngines/Sequential-16 5 21156670 ns/op 5784390 B/op 139269 allocs/op",
			Bench{Name: "BenchmarkEngines/Sequential", NsPerOp: 21156670, BytesPerOp: 5784390, AllocsPerOp: 139269},
			true,
		},
		{
			"fractional ns/op",
			"BenchmarkTable1/d=4-8 1000000 1052.5 ns/op",
			Bench{Name: "BenchmarkTable1/d=4", NsPerOp: 1052.5},
			true,
		},
		{
			// A benchmark name containing a literal -N segment inside a
			// sub-benchmark path keeps everything but the final suffix.
			"only the trailing suffix is stripped",
			"BenchmarkX/d=-5-8 10 5 ns/op",
			Bench{Name: "BenchmarkX/d=-5", NsPerOp: 5},
			true,
		},
		{"header goos", "goos: linux", Bench{}, false},
		{"header cpu", "cpu: Intel(R) Xeon(R) Processor @ 2.10GHz", Bench{}, false},
		{"pass line", "PASS", Bench{}, false},
		{"ok line", "ok  \teds\t12.345s", Bench{}, false},
		{"skip line", "--- SKIP: BenchmarkSharded/Million/Cycle/n=1M/sharded", Bench{}, false},
	}
	for _, tc := range cases {
		got, ok := parseBench(tc.line)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if ok && got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

func TestParseOutput(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: eds
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngines/Sequential-8 5 21156670 ns/op 5784390 B/op 139269 allocs/op
BenchmarkSharded/Cycle/n=100k/sharded-8 5 42791983 ns/op 21800513 B/op 800005 allocs/op 100000 nodes 1.000 rounds
PASS
ok	eds	1.234s
`
	got, cpu, procs, err := parseOutput(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", cpu)
	}
	if procs != 8 {
		t.Errorf("procs = %d, want 8 from the -8 name suffix", procs)
	}
	// go test appends no suffix at GOMAXPROCS=1.
	if _, _, procs, err := parseOutput(strings.NewReader("BenchmarkX 5 100 ns/op 1 allocs/op\n")); err != nil || procs != 1 {
		t.Errorf("unsuffixed run: procs = %d, err = %v, want 1", procs, err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d results, want 2: %v", len(got), got)
	}
	if got["BenchmarkSharded/Cycle/n=100k/sharded"].Nodes != 100000 {
		t.Errorf("nodes not parsed: %+v", got["BenchmarkSharded/Cycle/n=100k/sharded"])
	}
}

func TestDiff(t *testing.T) {
	baseline := []Bench{
		{Name: "A", AllocsPerOp: 1000},
		{Name: "B", AllocsPerOp: 1_000_000},
	}
	mk := func(a, b int64) map[string]Bench {
		return map[string]Bench{"A": {Name: "A", AllocsPerOp: a}, "B": {Name: "B", AllocsPerOp: b}}
	}
	if p := diff(baseline, mk(1000, 1_000_000), 0.25); len(p) != 0 {
		t.Errorf("exact match should pass, got %v", p)
	}
	// Within tolerance+slack: the ceiling is 1000*1.25 + coldSlack.
	atCeiling := int64(1250 + coldSlack)
	if p := diff(baseline, mk(atCeiling, 1_000_000), 0.25); len(p) != 0 {
		t.Errorf("at the ceiling should pass, got %v", p)
	}
	if p := diff(baseline, mk(atCeiling+1, 1_000_000), 0.25); len(p) != 1 {
		t.Errorf("one over the ceiling should fail once, got %v", p)
	}
	// O(n) regression on the big benchmark is far past 25%+coldSlack.
	if p := diff(baseline, mk(1000, 2_000_000), 0.25); len(p) != 1 {
		t.Errorf("2x allocation growth should fail, got %v", p)
	}
	// Improvements never fail.
	if p := diff(baseline, mk(10, 36), 0.25); len(p) != 0 {
		t.Errorf("improvement should pass, got %v", p)
	}
	// A baseline entry missing from the run fails the gate.
	if p := diff(baseline, map[string]Bench{"A": {Name: "A", AllocsPerOp: 1000}}, 0.25); len(p) != 1 {
		t.Errorf("missing benchmark should fail once, got %v", p)
	}
	// Extra benchmarks in the run are not gated.
	got := mk(1000, 1_000_000)
	got["C"] = Bench{Name: "C", AllocsPerOp: 999_999_999}
	if p := diff(baseline, got, 0.25); len(p) != 0 {
		t.Errorf("ungated extra benchmark should pass, got %v", p)
	}
}

const sampleOutput = `cpu: Test CPU
BenchmarkEngines/Sequential-8 5 100 ns/op 50 B/op 40 allocs/op
BenchmarkNew/NotGated-8 5 100 ns/op 50 B/op 77 allocs/op
PASS
`

func writeBaseline(t *testing.T, dir string, b Baseline) string {
	t.Helper()
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunGateAndUpdate(t *testing.T) {
	dir := t.TempDir()
	path := writeBaseline(t, dir, Baseline{
		CPU:        "Old CPU",
		Benchmarks: []Bench{{Name: "BenchmarkEngines/Sequential", AllocsPerOp: 500_000}},
	})

	// Gate passes: 40 allocs against a 500k baseline is an improvement.
	var out, errOut strings.Builder
	code := run([]string{"-baseline", path}, strings.NewReader(sampleOutput), &out, &errOut)
	if code != 0 {
		t.Fatalf("gate should pass, exit %d: %s", code, errOut.String())
	}

	// -update banks the improvement and gates the new benchmark too.
	out.Reset()
	errOut.Reset()
	code = run([]string{"-baseline", path, "-update"}, strings.NewReader(sampleOutput), &out, &errOut)
	if code != 0 {
		t.Fatalf("update failed, exit %d: %s", code, errOut.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fresh Baseline
	if err := json.Unmarshal(raw, &fresh); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Benchmarks) != 2 || fresh.Benchmarks[0].AllocsPerOp != 40 ||
		fresh.Benchmarks[1].Name != "BenchmarkNew/NotGated" || fresh.Benchmarks[1].AllocsPerOp != 77 {
		t.Fatalf("baseline not refreshed: %+v", fresh.Benchmarks)
	}
	if fresh.CPU != "Test CPU" {
		t.Errorf("cpu not taken from the run header: %q", fresh.CPU)
	}
	if fresh.Gomaxprocs != 8 {
		t.Errorf("gomaxprocs = %d, want 8 from the run's name suffixes", fresh.Gomaxprocs)
	}
	if fresh.Comment == "" || fresh.Generated == "" || fresh.Go == "" {
		t.Errorf("metadata missing from regenerated baseline: %+v", fresh)
	}

	// After the update, a rerun of the same output still passes…
	code = run([]string{"-baseline", path}, strings.NewReader(sampleOutput), &out, &errOut)
	if code != 0 {
		t.Fatalf("gate after update should pass, exit %d: %s", code, errOut.String())
	}
	// …and a genuine regression against the tight new baseline fails.
	regressed := strings.Replace(sampleOutput, "40 allocs/op", "90000 allocs/op", 1)
	errOut.Reset()
	code = run([]string{"-baseline", path}, strings.NewReader(regressed), &out, &errOut)
	if code != 1 {
		t.Fatalf("regression should exit 1, got %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "allocs/op grew") {
		t.Errorf("missing diagnostic: %s", errOut.String())
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	dir := t.TempDir()
	path := writeBaseline(t, dir, Baseline{Benchmarks: []Bench{{Name: "X", AllocsPerOp: 1}}})
	var out, errOut strings.Builder
	if code := run([]string{"-baseline", path}, strings.NewReader("PASS\n"), &out, &errOut); code != 2 {
		t.Fatalf("empty input should exit 2, got %d", code)
	}
}

// TestUpdateReportsDroppedEntries: a baseline entry missing from the
// -update input stops being gated, and the update says so.
func TestUpdateReportsDroppedEntries(t *testing.T) {
	path := writeBaseline(t, t.TempDir(), Baseline{Benchmarks: []Bench{
		{Name: "BenchmarkEngines/Sequential", AllocsPerOp: 40},
		{Name: "BenchmarkBatchedRun", AllocsPerOp: 36},
	}})
	var out, errOut strings.Builder
	if code := run([]string{"-baseline", path, "-update"}, strings.NewReader(sampleOutput), &out, &errOut); code != 0 {
		t.Fatalf("update failed, exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "BenchmarkBatchedRun is not in the benchmark output") {
		t.Errorf("dropped entry not reported: %q", errOut.String())
	}
}

// TestRegenerateCommandCoversBaseline checks the committed baseline
// against the command its _comment documents: the -bench pattern must
// select every gated benchmark and the package list must include every
// package defining one, or following the comment would silently drop
// those entries from the gate.
func TestRegenerateCommandCoversBaseline(t *testing.T) {
	root := filepath.Join("..", "..")
	raw, err := os.ReadFile(filepath.Join(root, "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var baseline Baseline
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(baseline.Comment, regenerateCommand) {
		t.Errorf("baseline _comment does not document regenerateCommand:\n%s", baseline.Comment)
	}
	m := regexp.MustCompile(`-bench='([^']*)' .*-benchtime=\S+ (.*) \| go run`).FindStringSubmatch(regenerateCommand)
	if m == nil {
		t.Fatalf("cannot parse regenerateCommand %q", regenerateCommand)
	}
	pattern := regexp.MustCompile(m[1])
	packages := map[string]bool{}
	for _, pkg := range strings.Fields(m[2]) {
		packages[filepath.Clean(pkg)] = true
	}
	// Where each top-level benchmark function is defined.
	defined := map[string]string{}
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || fileExists(filepath.Join(path, "go.mod"))) {
			return filepath.SkipDir // hidden directories and other modules
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, sm := range decl.FindAllStringSubmatch(string(src), -1) {
			defined[sm[1]] = rel
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range baseline.Benchmarks {
		top, _, _ := strings.Cut(b.Name, "/")
		if !pattern.MatchString(top) {
			t.Errorf("%s: -bench pattern %q does not select %s", b.Name, m[1], top)
		}
		pkg, ok := defined[top]
		if !ok {
			t.Errorf("%s: no func %s in the module", b.Name, top)
			continue
		}
		if !packages[pkg] {
			t.Errorf("%s: defined in %s, which the regeneration command does not benchmark", b.Name, pkg)
		}
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
