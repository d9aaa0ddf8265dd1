// Command edsrun runs one of the paper's algorithms on a generated
// port-numbered graph and reports feasibility, solution quality, and
// execution statistics.
//
// Usage:
//
//	edsrun -graph cycle:12 -alg auto
//	edsrun -graph regular:n=20,d=3 -alg regularodd -shards 1
//	edsrun -graph regular:n=100000,d=3 -alg regularodd -shards 8
//	edsrun -graph evenlb:d=6 -alg portone -dot out.dot
//
// Shards: 0 (the default) lets sim.RunAuto choose — one shard per CPU
// from sim.AutoShardedPorts ports up on multi-core, one inline shard
// otherwise; N > 0 runs exactly N shards, and -shards 1 is the inline
// reference. Every shard count produces identical results.
//
// Graphs: cycle:N, path:N, complete:N, hypercube:DIM, torus:RxC,
// petersen, matching:K, regular:n=N,d=D, bounded:n=N,delta=D,
// tree:N, evenlb:d=D, oddlb:d=D.
//
// Algorithms: auto, portone, regularodd, regularodd-nopruning,
// general (uses the graph's max degree), general:DELTA, alledges.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"eds/internal/sim"
	"eds/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("edsrun: ")
	graphSpec := flag.String("graph", "cycle:12", "graph specification (see -help)")
	algSpec := flag.String("alg", "auto", "algorithm: auto|portone|regularodd|regularodd-nopruning|general[:D]|alledges")
	shards := flag.Int("shards", 0, "worker shards (0 = chosen by graph size and CPU count, 1 = inline reference)")
	seed := flag.Int64("seed", 1, "seed for random graph families")
	dotOut := flag.String("dot", "", "write a DOT rendering with the output highlighted")
	exact := flag.Bool("exact", false, "also compute the exact optimum (exponential; small graphs only)")
	profile := flag.Bool("profile", false, "print the per-message-type communication profile")
	flag.Parse()

	g, opt, err := spec.Graph(*graphSpec, *seed)
	if err != nil {
		log.Fatal(err)
	}
	alg, bound, err := spec.Algorithm(*algSpec, g)
	if err != nil {
		log.Fatal(err)
	}

	if *shards < 0 {
		log.Fatalf("-shards %d: must be 0 (auto) or a positive count", *shards)
	}
	var trace *sim.Trace
	var opts []sim.Option
	if *profile {
		var traceOpt sim.Option
		trace, traceOpt = sim.NewTrace()
		opts = append(opts, traceOpt)
	}
	run := sim.RunAuto
	if *shards > 0 {
		run = sim.RunSharded
		opts = append(opts, sim.WithShards(*shards))
	}
	res, err := run(g, alg, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if err := report(os.Stdout, g, alg, bound, res, opt, *exact, *dotOut); err != nil {
		log.Fatal(err)
	}
	if trace != nil {
		fmt.Println("\ncommunication profile:")
		fmt.Print(trace.String())
	}
}
