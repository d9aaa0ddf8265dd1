package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"eds/internal/core"
	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/sim"
)

// thinnedRegular is a seeded random d-regular graph on n nodes with a
// share drop of its edges removed: irregular, with maximum degree d.
func thinnedRegular(seed int64, n, d int, drop float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	reg := gen.MustRandomRegular(rng, n, d)
	pairs := make([][2]int, 0, reg.M())
	for _, e := range reg.Edges() {
		pairs = append(pairs, [2]int{e.U(), e.V()})
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return graph.MustFromUndirected(n, pairs[:len(pairs)-int(drop*float64(len(pairs)))])
}

// edgeHash is the first 16 hex digits of the sha256 of the sorted edge
// list, one "u v" line per edge.
func edgeHash(g *graph.Graph, d *graph.EdgeSet) string {
	h := sha256.New()
	for _, p := range graph.SortedPairs(g, d) {
		fmt.Fprintf(h, "%d %d\n", p[0], p[1])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGoldenRunStatistics pins Rounds, Messages and the chosen edge set
// of every core algorithm on a fixed seeded corpus, at shard counts 1, 2
// and one per node. The values are those of the earlier pull-gather
// engine. A message-plane fault (a stale inbox slot, a message delivered
// to the wrong port or counted twice) moves Messages even when the edge
// set happens to survive, which the edge-set tests alone miss.
func TestGoldenRunStatistics(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"thinned5/n=2000": thinnedRegular(1, 2000, 5, 0.2),
		"regular3/n=200":  gen.MustRandomRegular(rand.New(rand.NewSource(2)), 200, 3),
		"regular5/n=120":  gen.MustRandomRegular(rand.New(rand.NewSource(3)), 120, 5),
		"bounded4/n=150":  gen.RandomBoundedDegree(rand.New(rand.NewSource(4)), 150, 4, 0.5),
	}
	algs := map[string]sim.Algorithm{
		"portone":         core.PortOne{},
		"regularodd":      core.RegularOdd{},
		"regularodd-skip": core.RegularOdd{SkipPruning: true},
		"general3":        core.NewGeneral(3),
		"general5":        core.NewGeneral(5),
		"idmatching":      core.IDMatching{},
		"vertexcover3":    core.VertexCover3{Delta: 5},
	}
	type golden struct {
		rounds, messages int
		edges            string
	}
	want := map[string]golden{
		"bounded4/n=150/general3":         {38, 2746, "d9811dbb30370f13"},
		"bounded4/n=150/general5":         {94, 3960, "fd03a7ee05f9fee9"},
		"bounded4/n=150/idmatching":       {14, 3671, "8da65db20db43573"},
		"bounded4/n=150/portone":          {1, 150, "992638da5b244ff0"},
		"bounded4/n=150/regularodd":       {65, 1172, "a54bf15b63a764fc"},
		"bounded4/n=150/regularodd-skip":  {33, 894, "f369e5645915f223"},
		"bounded4/n=150/vertexcover3":     {10, 534, "94ee1ae41547944a"},
		"regular3/n=200/general3":         {38, 2828, "47db64d2b4dca471"},
		"regular3/n=200/general5":         {94, 4028, "47db64d2b4dca471"},
		"regular3/n=200/idmatching":       {14, 3316, "2ceef8e6aac6c012"},
		"regular3/n=200/portone":          {1, 200, "7b5b57618abbae08"},
		"regular3/n=200/regularodd":       {37, 1372, "1ebc8070d713cc5f"},
		"regular3/n=200/regularodd-skip":  {19, 1000, "56e38ee03fc978aa"},
		"regular3/n=200/vertexcover3":     {10, 602, "302078353f50733b"},
		"regular5/n=120/general3":         {38, 2668, "2da13ab73e28fa3c"},
		"regular5/n=120/general5":         {94, 3882, "2da13ab73e28fa3c"},
		"regular5/n=120/idmatching":       {20, 4508, "72f66eb83964eee5"},
		"regular5/n=120/portone":          {1, 120, "ac80ea35e7422668"},
		"regular5/n=120/regularodd":       {101, 1058, "b6d8c7e369d596a1"},
		"regular5/n=120/regularodd-skip":  {51, 840, "3225b43aad0101c3"},
		"regular5/n=120/vertexcover3":     {10, 424, "656c38b5ae10b23b"},
		"thinned5/n=2000/general3":        {38, 36448, "ae11198c44ce0e10"},
		"thinned5/n=2000/general5":        {94, 52320, "4c8cabecaac2af34"},
		"thinned5/n=2000/idmatching":      {18, 49860, "1c25d55c985713eb"},
		"thinned5/n=2000/portone":         {1, 2000, "3b1790a5992b4f9e"},
		"thinned5/n=2000/regularodd":      {101, 14152, "313896976145ff9e"},
		"thinned5/n=2000/regularodd-skip": {51, 11747, "f6ef27c873187901"},
		"thinned5/n=2000/vertexcover3":    {10, 6652, "2e9d21698b89e7af"},
	}
	for gname, g := range graphs {
		for aname, alg := range algs {
			name := gname + "/" + aname
			w, ok := want[name]
			if !ok {
				t.Fatalf("%s: no golden row", name)
			}
			t.Run(name, func(t *testing.T) {
				for _, p := range []int{1, 2, g.N()} {
					d, res, err := runSharded(g, alg, p)
					if err != nil {
						t.Fatalf("shards=%d: %v", p, err)
					}
					if got := (golden{res.Rounds, res.Messages, edgeHash(g, d)}); got != w {
						t.Errorf("shards=%d: (Rounds, Messages, edges) = %v, want %v", p, got, w)
					}
				}
			})
		}
	}
}

// runSharded runs alg on g with p shards and converts the outputs to
// an edge set.
func runSharded(g *graph.Graph, alg sim.Algorithm, p int) (*graph.EdgeSet, *sim.Result, error) {
	res, err := sim.RunSharded(g, alg, sim.WithShards(p))
	if err != nil {
		return nil, nil, err
	}
	d, err := sim.EdgeSet(g, res.Outputs)
	return d, res, err
}
