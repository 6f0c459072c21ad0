package heuristics

import (
	"math/rand"
	"testing"

	"ocd/internal/core"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// midRunState returns a random n=500, 50-token single-file instance and
// the possession halfway through a Local run on it: the Plan benchmark's
// reference state, tokens spread but far from complete.
func midRunState(b *testing.B) (*core.Instance, []tokenset.Set) {
	b.Helper()
	g, err := topology.Random(500, topology.DefaultCaps, 1)
	if err != nil {
		b.Fatal(err)
	}
	inst := workload.SingleFile(g, 50)
	res, err := sim.Run(inst, Local, sim.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	possess := inst.InitialPossession()
	for _, st := range res.Schedule.Steps[:len(res.Schedule.Steps)/2] {
		for _, mv := range st {
			possess[mv.To].Add(mv.Token)
		}
	}
	return inst, possess
}

// BenchmarkPlan times one Plan call of each heuristic on the mid-run
// state. The state's have-counts and holder index are built before the
// timer starts, as the kernel keeps them current during a run.
func BenchmarkPlan(b *testing.B) {
	inst, possess := midRunState(b)
	for i, factory := range All() {
		b.Run(Names()[i], func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			strat, err := factory(inst, rng)
			if err != nil {
				b.Fatal(err)
			}
			st := &sim.State{Inst: inst, Possess: possess, Rand: rng}
			st.HaveCounts()
			st.Holders()
			b.ReportAllocs()
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				strat.Plan(st)
			}
		})
	}
}
