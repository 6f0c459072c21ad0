package ilp_test

import (
	"testing"

	"ocd/internal/core"
	"ocd/internal/exact"
	"ocd/internal/experiments"
	"ocd/internal/ilp"
)

// pinnedSet is the solver bench set of cmd/ocdbench (seed 7, 8 instances,
// n=6, m=3) with each instance's horizon: the FOCD optimum plus one slack
// step, as the ILP↔exact cross-check uses.
func pinnedSet(tb testing.TB) ([]*core.Instance, []int) {
	tb.Helper()
	insts := experiments.RandomTinyInstances(7, 8, 6, 3)
	taus := make([]int, len(insts))
	for i, inst := range insts {
		fast, err := exact.SolveFOCD(inst, exact.Options{})
		if err != nil {
			tb.Fatalf("instance %d: focd: %v", i, err)
		}
		taus[i] = fast.Makespan() + 1
	}
	return insts, taus
}

// BenchmarkBuild times the presolve and matrix build over the pinned set.
func BenchmarkBuild(b *testing.B) {
	insts, taus := pinnedSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, inst := range insts {
			if _, err := ilp.Build(inst, taus[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSolveStats times branch-and-bound over the pinned set's built
// programs; simplex iterations per op are reported alongside.
func BenchmarkSolveStats(b *testing.B) {
	insts, taus := pinnedSet(b)
	progs := make([]*ilp.Program, len(insts))
	for i, inst := range insts {
		p, err := ilp.Build(inst, taus[i])
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	iters := 0
	for n := 0; n < b.N; n++ {
		for _, p := range progs {
			_, _, st, err := p.SolveStats(ilp.Options{})
			if err != nil {
				b.Fatal(err)
			}
			iters += st.SimplexIterations
		}
	}
	b.ReportMetric(float64(iters)/float64(b.N), "lp-iters/op")
}

// buildSolveAllocCeiling guards the allocation count of Build plus
// SolveStats on instance 1 of the pinned set (τ=4, two branch-and-bound
// nodes). Build allocates a constant 15 times — layout, bounds, row slab,
// row headers — whatever the program's size, and the solver's tableau is
// one slab; measured 47 in all, the ceiling sits ~50% above. A per-row or
// per-variable allocation creeping back in trips it.
const buildSolveAllocCeiling = 70

// TestAllocationCeilings runs Build and SolveStats on one pinned instance
// and fails if together they allocate more than the recorded ceiling.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	insts, taus := pinnedSet(t)
	inst, tau := insts[1], taus[1]
	allocs := testing.AllocsPerRun(5, func() {
		p, err := ilp.Build(inst, tau)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := p.SolveStats(ilp.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Build+SolveStats: %.0f allocs (ceiling %d)", allocs, buildSolveAllocCeiling)
	if allocs > buildSolveAllocCeiling {
		t.Errorf("Build+SolveStats allocated %.0f times, ceiling %d — a per-row or per-variable allocation crept back in",
			allocs, buildSolveAllocCeiling)
	}
}
