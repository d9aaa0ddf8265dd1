package graph_test

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"eds/internal/gen"
	"eds/internal/graph"
)

// TestDigestCanonical pins the digest's contract: wire-form cosmetics
// do not move it, structure does.
func TestDigestCanonical(t *testing.T) {
	const wire = "nodes 4\nconn 0 1 1 1\nconn 1 2 2 1\nconn 2 2 3 1\nconn 3 2 0 2\n"
	g1, err := graph.ReadGraph(strings.NewReader(wire))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}

	// Comments, blank lines, and reordered conn lines decode to the same
	// port-numbered graph, so the digest must not move.
	cosmetic := "# cycle on four nodes\n\nnodes 4\nconn 3 2 0 2\nconn 0 1 1 1\nconn 2 2 3 1\nconn 1 2 2 1\n"
	g2, err := graph.ReadGraph(strings.NewReader(cosmetic))
	if err != nil {
		t.Fatalf("ReadGraph cosmetic: %v", err)
	}
	if graph.Digest(g1) != graph.Digest(g2) {
		t.Error("cosmetic wire-form change moved the digest")
	}

	// Round-tripping through the codec preserves the digest.
	var buf bytes.Buffer
	if err := graph.WriteTo(&buf, g1); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	g3, err := graph.ReadGraph(&buf)
	if err != nil {
		t.Fatalf("ReadGraph round-trip: %v", err)
	}
	if graph.Digest(g1) != graph.Digest(g3) {
		t.Error("codec round-trip moved the digest")
	}

	// A structural change — one extra node — must move it.
	g4, err := graph.ReadGraph(strings.NewReader(strings.Replace(wire, "nodes 4", "nodes 5", 1)))
	if err != nil {
		t.Fatalf("ReadGraph grown: %v", err)
	}
	if graph.Digest(g1) == graph.Digest(g4) {
		t.Error("structural change did not move the digest")
	}
}

// TestDigestGolden pins the digests of generator outputs: a change to a
// generator, to graph construction, or to Digest moves one of them, and
// with it every cache key and cluster owner.
func TestDigestGolden(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"Cycle(7)", gen.Cycle(7), "6fa4a0b05a03b64359d648399ecf497357934a9d43fa64bf3c46b0f39d34b4cb"},
		{"Torus(4,5)", gen.Torus(4, 5), "5a5164524a58e21e99e9d294898102873872b553769b471da8edaf23c77de4fa"},
		{"Hypercube(4)", gen.Hypercube(4), "064bde3f4483e648b76266e7ac11d46d72e6a8bf643864a63394af394699f9f7"},
		{"Petersen", gen.Petersen(), "f8d1939f26a6af9b8cffbf612ea79fafb2140475139a98c2ac7b3f20dd4073d8"},
		{"RandomRegular(seed=1,n=50,d=3)", gen.MustRandomRegular(rand.New(rand.NewSource(1)), 50, 3),
			"9476b96d55feb2e31a7b71cbb39b25c772d7f245e44121bcca62bedae09726f2"},
		{"RandomBoundedDegree(seed=2,n=40,maxDeg=4,p=0.3)", gen.RandomBoundedDegree(rand.New(rand.NewSource(2)), 40, 4, 0.3),
			"a4e0134645b4ec85a3132ea34608182f1bf28ce55c1300e00c71abbf11ce033d"},
	}
	for _, tc := range cases {
		d := graph.Digest(tc.g)
		if got := hex.EncodeToString(d[:]); got != tc.want {
			t.Errorf("Digest(%s) = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func BenchmarkDigest(b *testing.B) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(1)), 100_000, 4)
	b.SetBytes(int64(4 * (g.N() + 1 + g.NumPorts())))
	b.ReportAllocs()
	for b.Loop() {
		graph.Digest(g)
	}
}
