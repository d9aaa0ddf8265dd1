package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestCodecRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSimpleGraph(rng, 2+rng.Intn(12), rng.Float64())
		var sb strings.Builder
		if err := WriteTo(&sb, g); err != nil {
			return false
		}
		h, err := ReadGraph(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		return g.Equal(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCodecRoundTripMultigraph(t *testing.T) {
	b := NewBuilder(2)
	b.MustConnect(0, 1, 1, 2)
	b.MustConnect(0, 2, 1, 1)
	b.MustConnect(0, 3, 0, 3) // directed loop
	b.MustConnect(1, 3, 1, 4) // undirected loop
	g := b.MustBuild()
	var sb strings.Builder
	if err := WriteTo(&sb, g); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	h, err := ReadGraph(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if !g.Equal(h) {
		t.Errorf("round trip changed the graph:\n%s", sb.String())
	}
}

func TestReadGraphErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"conn before nodes", "conn 0 1 1 1\nnodes 2"},
		{"duplicate nodes", "nodes 2\nnodes 3"},
		{"bad nodes", "nodes x"},
		{"negative nodes", "nodes -1"},
		{"short conn", "nodes 2\nconn 0 1 1"},
		{"out of range", "nodes 2\nconn 0 1 5 1"},
		{"double wire", "nodes 3\nconn 0 1 1 1\nconn 0 1 2 1"},
		{"hole in ports", "nodes 2\nconn 0 2 1 1"},
		{"unknown directive", "nodes 1\nfrobnicate"},
		{"nodes without count", "nodes"},
		{"nodes with trailing junk", "nodes 2 extra"},
		{"non-integer nodes", "nodes 2x"},
		{"non-integer conn field", "nodes 2\nconn 0 1 1 1x"},
		{"nodes overflow", "nodes 99999999999999999999"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadGraph(strings.NewReader(tc.input)); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

// TestReadGraphLimits checks the decode caps: a hostile input may not
// force allocation past MaxNodes or MaxPorts, and the rejection is
// distinguishable (ErrTooLarge) from a malformed input.
func TestReadGraphLimits(t *testing.T) {
	lim := Limits{MaxNodes: 4, MaxPorts: 6}
	t.Run("too many nodes", func(t *testing.T) {
		_, err := ReadGraphLimits(strings.NewReader("nodes 5\n"), lim)
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("err = %v, want ErrTooLarge", err)
		}
	})
	t.Run("huge port number", func(t *testing.T) {
		_, err := ReadGraphLimits(strings.NewReader("nodes 2\nconn 0 1000000 1 1\n"), lim)
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("err = %v, want ErrTooLarge", err)
		}
	})
	t.Run("port budget across lines", func(t *testing.T) {
		// Each line wires 2 ports; the fourth line exceeds the 6-port cap.
		input := "nodes 4\nconn 0 1 1 1\nconn 0 2 2 1\nconn 0 3 3 1\nconn 1 2 2 2\n"
		_, err := ReadGraphLimits(strings.NewReader(input), lim)
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("err = %v, want ErrTooLarge", err)
		}
	})
	t.Run("within limits", func(t *testing.T) {
		g, err := ReadGraphLimits(strings.NewReader("nodes 4\nconn 0 1 1 1\nconn 2 1 3 1\n"), lim)
		if err != nil {
			t.Fatalf("ReadGraphLimits: %v", err)
		}
		if g.N() != 4 || g.M() != 2 {
			t.Errorf("got n=%d m=%d", g.N(), g.M())
		}
	})
	t.Run("default limits reject absurd sizes", func(t *testing.T) {
		_, err := ReadGraph(strings.NewReader("nodes 1000000000\n"))
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("err = %v, want ErrTooLarge", err)
		}
	})
	t.Run("malformed is not ErrTooLarge", func(t *testing.T) {
		_, err := ReadGraphLimits(strings.NewReader("nodes x\n"), lim)
		if err == nil || errors.Is(err, ErrTooLarge) {
			t.Errorf("err = %v, want a plain parse error", err)
		}
	})
}

func TestReadGraphCommentsAndWhitespace(t *testing.T) {
	input := `
# a comment
nodes 2

conn 0 1 1 1
`
	g, err := ReadGraph(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Errorf("got n=%d m=%d", g.N(), g.M())
	}
}

// TestReadGraphLineBudget checks the 64 KiB line limit at its boundary
// against the frozen decoder of legacy_test.go, including a final line
// without a newline and a double wire reported ahead of a long line.
// (Inputs this large slow the differential fuzzer to a crawl, so they
// are checked here rather than seeded.)
func TestReadGraphLineBudget(t *testing.T) {
	for _, input := range []string{
		"nodes 1\n#" + strings.Repeat("x", 65534) + "\nconn 0 1 0 1\n",
		"nodes 1\n#" + strings.Repeat("x", 65534) + "\r\nconn 0 1 0 1\n",
		"nodes 1\n#" + strings.Repeat("x", 65535) + "\nconn 0 1 0 1\n",
		"nodes 1\nconn 0 1 0 1\n#" + strings.Repeat("x", 65534),
		"nodes 1\nconn 0 1 0 1\n#" + strings.Repeat("x", 65535),
		"nodes 2\nconn 0 1 1 1\nconn 0 1 1 1\n#" + strings.Repeat("x", 70000),
	} {
		_, err := ReadGraph(strings.NewReader(input))
		_, want := legacyReadGraphLimits(strings.NewReader(input), DefaultLimits)
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Errorf("%q...: error %v, frozen decoder %v", input[:24], err, want)
		}
	}
}

// TestReadGraphHugePortBesideBadEndpoint: a line naming a huge port next
// to an out-of-range node is rejected like any bad endpoint, without
// allocating for the named port. The port budget is charged only for
// lines whose endpoints both exist, so nothing else bounds this case.
func TestReadGraphHugePortBesideBadEndpoint(t *testing.T) {
	const input = "nodes 2\nconn 0 10000000 5 1\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadGraphLimits(strings.NewReader(input), Limits{MaxNodes: 64, MaxPorts: 256})
	runtime.ReadMemStats(&after)
	if want := "graph: line 2: graph: node 5 out of range [0,2)"; fmt.Sprint(err) != want {
		t.Errorf("err = %v, want %s", err, want)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Errorf("decode allocated %d bytes for a 27-byte input", grown)
	}
}
