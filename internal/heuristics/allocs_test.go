package heuristics

import (
	"testing"

	"ocd/internal/core"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// allocCeilings are regression guards for the scratch-buffer architecture:
// whole-run allocation counts for each heuristic on the reference workload,
// set ~50% above the measured values so ordinary noise passes but a
// reintroduced per-step allocation (a map rebuilt per Plan, a sort closure,
// a fresh token buffer per vertex) trips the guard. Raising a ceiling is a
// deliberate act — it should accompany a change that knowingly adds
// allocation, not silence a regression.
var allocCeilings = map[string]float64{
	"roundrobin": 700,
	"random":     550,
	"local":      550,
	"bandwidth":  600,
	"global":     800,
}

// lossyAllocCeilings guard the loss-enabled kernel path: a loss draw per
// accepted move plus the exact-size delivered copy must not reintroduce
// per-step allocation. The absolute counts sit below the lossless ones
// because lossy runs skip the pruning pass; measured the same way, ~50%
// headroom above observed.
var lossyAllocCeilings = map[string]float64{
	"roundrobin": 250,
	"random":     250,
	"local":      250,
	"bandwidth":  250,
	"global":     500,
}

// pruneAllocCeiling guards core.Prune's allocation count on each
// heuristic's complete schedule of the reference workload. Prune marks
// moves in one flag slice, reuses one slab of possession sets for both
// passes and builds its output in one exact-size move array, so the count
// is a constant (6) independent of the schedule; ~50% headroom above it.
const pruneAllocCeiling = 9

// BenchmarkHeuristicRun is the per-heuristic microbenchmark backing the
// ceilings above: -benchmem reports allocs/op for the same fixed workload.
func BenchmarkHeuristicRun(b *testing.B) {
	g, err := topology.Random(60, topology.DefaultCaps, 1)
	if err != nil {
		b.Fatal(err)
	}
	inst := workload.SingleFile(g, 40)
	for i, factory := range All() {
		factory := factory
		b.Run(Names()[i], func(b *testing.B) {
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				if _, err := sim.Run(inst, factory, sim.Options{Seed: 1, Prune: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAllocationCeilings runs every heuristic end to end on a fixed
// instance and fails if its total allocations exceed the recorded ceiling.
// The lossless and lossy kernel paths are guarded separately: the lossy
// path draws from the loss stream per accepted move and copies delivered
// moves out at exact size, both of which must stay amortized.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	g, err := topology.Random(60, topology.DefaultCaps, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 40)
	for _, path := range []struct {
		label    string
		opts     sim.Options
		ceilings map[string]float64
	}{
		{"lossless", sim.Options{Seed: 1, Prune: true}, allocCeilings},
		{"lossy", sim.Options{Seed: 1, LossRate: 0.15, IdlePatience: 30}, lossyAllocCeilings},
	} {
		t.Run(path.label, func(t *testing.T) {
			for i, factory := range All() {
				name := Names()[i]
				ceiling, ok := path.ceilings[name]
				if !ok {
					t.Errorf("%s: no allocation ceiling recorded; add one", name)
					continue
				}
				allocs := testing.AllocsPerRun(5, func() {
					if _, err := sim.Run(inst, factory, path.opts); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				})
				t.Logf("%s: %.0f allocs/run (ceiling %.0f)", name, allocs, ceiling)
				if allocs > ceiling {
					t.Errorf("%s allocated %.0f times per run, ceiling %.0f — a per-step allocation crept back in",
						name, allocs, ceiling)
				}
			}
		})
	}
	t.Run("prune", func(t *testing.T) {
		for i, factory := range All() {
			name := Names()[i]
			res, err := sim.Run(inst, factory, sim.Options{Seed: 1})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			allocs := testing.AllocsPerRun(5, func() { core.Prune(inst, res.Schedule) })
			t.Logf("%s: core.Prune %.0f allocs (ceiling %d)", name, allocs, pruneAllocCeiling)
			if allocs > pruneAllocCeiling {
				t.Errorf("core.Prune on %s's schedule allocated %.0f times, ceiling %d — per-step or per-vertex allocation crept back in",
					name, allocs, pruneAllocCeiling)
			}
		}
	})
}
