package fault

import (
	"errors"
	"testing"

	"ocd/internal/core"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// chaosCell is one fixed cell of the chaos sweep: a 12-vertex random
// topology, a single 8-token file from vertex 0, the local heuristic and
// a seeded plan at the given fault intensity (vertex 0 protected).
func chaosCell(tb testing.TB, x float64) (*core.Instance, func() Plan, sim.Options) {
	tb.Helper()
	g, err := topology.Random(12, topology.DefaultCaps, 7)
	if err != nil {
		tb.Fatal(err)
	}
	const seed = 11
	// The plan's models are stateful, so every run builds its own.
	plan := func() Plan { return AtIntensity(x, seed, 0) }
	return workload.SingleFile(g, 8), plan, sim.Options{Seed: seed, IdlePatience: 40}
}

// BenchmarkRunChaosCell times fault.Run on one chaos-style cell at
// intensity 0.5: crash transitions, reachability detection, the per-step
// capacity views and the loss draws.
func BenchmarkRunChaosCell(b *testing.B) {
	inst, plan, opts := chaosCell(b, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(inst, heuristics.Local, plan(), opts); err != nil && !errors.Is(err, sim.ErrStalled) {
			b.Fatal(err)
		}
	}
}

// faultAllocCeilings guard the fault engine's per-step view path the way
// the heuristics package's ceilings guard the static kernel: whole-run
// allocation counts of fault.Run on the chaos cell, about 50% above the
// measured values (intensity 0: 187, 0.5: 221, 1: 415; a map-backed view
// rebuilt every step made them 813, 1039 and 2382). A view rebuilt on
// every step, or a map-backed graph in detection, trips them.
var faultAllocCeilings = map[float64]float64{
	0:   280,
	0.5: 330,
	1:   620,
}

func TestFaultAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	for _, x := range []float64{0, 0.5, 1} {
		inst, plan, opts := chaosCell(t, x)
		ceiling := faultAllocCeilings[x]
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Run(inst, heuristics.Local, plan(), opts); err != nil && !errors.Is(err, sim.ErrStalled) {
				t.Fatalf("intensity %.1f: %v", x, err)
			}
		})
		t.Logf("intensity %.1f: %.0f allocs/run (ceiling %.0f)", x, allocs, ceiling)
		if allocs > ceiling {
			t.Errorf("intensity %.1f: fault.Run allocated %.0f times per run, ceiling %.0f — a per-step allocation crept back in",
				x, allocs, ceiling)
		}
	}
}
