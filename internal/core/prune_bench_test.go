package core_test

import (
	"testing"

	"ocd/internal/core"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// BenchmarkPrune times the §5.1 pruning pass on complete schedules of a
// random n=500, 50-token single-file instance: Round Robin's, full of
// duplicate deliveries, and Local's, mostly useful moves.
func BenchmarkPrune(b *testing.B) {
	g, err := topology.Random(500, topology.DefaultCaps, 1)
	if err != nil {
		b.Fatal(err)
	}
	inst := workload.SingleFile(g, 50)
	for _, name := range []string{"roundrobin", "local"} {
		factory, _ := heuristics.Named(name)
		res, err := sim.Run(inst, factory, sim.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Prune(inst, res.Schedule)
			}
		})
	}
}
