package graph_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"eds/internal/gen"
	"eds/internal/graph"
)

// wireForm returns the canonical wire form of a seeded RandomRegular
// graph, the shape of an edsd request body.
func wireForm(t testing.TB, n, d int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteTo(&buf, gen.MustRandomRegular(rand.New(rand.NewSource(1)), n, d)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeAllocationBudget pins decoding at a small constant number of
// allocations, independent of graph size: the decoder allocates its
// buffers and the graph's flat arrays, and nothing per line or per node.
func TestDecodeAllocationBudget(t *testing.T) {
	const budget = 16
	var counts []float64
	for _, n := range []int{10_000, 100_000} {
		body := wireForm(t, n, 4)
		var err error
		allocs := testing.AllocsPerRun(3, func() {
			_, err = graph.ReadGraph(bytes.NewReader(body))
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > budget {
			t.Errorf("n=%d: decode allocated %.0f times, budget %d", n, allocs, budget)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("decode allocations grow with n: %v at n=10k and n=100k", counts)
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		body := wireForm(b, n, 4)
		b.Run(fmt.Sprintf("RandomRegular/n=%dk,d=4", n/1000), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := graph.ReadGraph(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
