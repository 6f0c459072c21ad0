package sim_test

import (
	"math/rand"
	"testing"

	"ocd/internal/core"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// fixedPlan proposes the same moves every step. It also truncates the
// run's schedule, so a b.N-step run holds one step at a time.
type fixedPlan struct {
	moves []core.Move
	sched *core.Schedule
}

func (*fixedPlan) Name() string { return "fixed" }

func (f *fixedPlan) Plan(*sim.State) []core.Move {
	f.sched.Steps = f.sched.Steps[:0]
	return f.moves
}

// BenchmarkKernelAdmission times kernel timesteps — admission of every
// proposed move, delivery and the schedule's step copy — on Round Robin's
// proposals from a mid-run state of a random n=500, 50-token single-file
// instance (about half of them duplicates the kernel still admits). The
// observed variant adds an Observer, which makes the kernel keep the
// accepted moves' arc IDs.
func BenchmarkKernelAdmission(b *testing.B) {
	g, err := topology.Random(500, topology.DefaultCaps, 1)
	if err != nil {
		b.Fatal(err)
	}
	inst := workload.SingleFile(g, 50)
	res, err := sim.Run(inst, heuristics.Local, sim.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	possess := inst.InitialPossession()
	for _, st := range res.Schedule.Steps[:len(res.Schedule.Steps)/2] {
		for _, mv := range st {
			possess[mv.To].Add(mv.Token)
		}
	}
	rr, err := heuristics.RoundRobin(inst, nil)
	if err != nil {
		b.Fatal(err)
	}
	proposals := append([]core.Move(nil), rr.Plan(&sim.State{Inst: inst, Possess: possess})...)
	never := func(*core.Instance, []tokenset.Set) bool { return false }
	for _, variant := range []struct {
		name string
		obs  sim.Observer
	}{{"bare", nil}, {"observed", nopObserver{}}} {
		b.Run(variant.name, func(b *testing.B) {
			st := &sim.State{Inst: inst, Possess: possess, Rand: rand.New(rand.NewSource(1))}
			res := &sim.Result{Schedule: &core.Schedule{}}
			strat := &fixedPlan{moves: proposals, sched: res.Schedule}
			eng := sim.Engine{MaxSteps: b.N, Done: never, Observer: variant.obs}
			b.ReportAllocs()
			b.ReportMetric(float64(len(proposals)), "moves/op")
			b.ResetTimer()
			eng.Run(inst, strat, st, res)
		})
	}
}

type nopObserver struct{}

func (nopObserver) OnStep(int, core.Step, *sim.State)            {}
func (nopObserver) OnMove(int, core.Move, int, bool, *sim.State) {}
func (nopObserver) OnReject(int, core.Move, *sim.State)          {}
