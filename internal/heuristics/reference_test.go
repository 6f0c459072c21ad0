package heuristics

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ocd/internal/core"
	"ocd/internal/fault"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// The reference planners below are the full-rescan forms of Local,
// Bandwidth and Global: every fact is re-derived from the state on every
// step and every claim round, with fresh allocations and no early exits.
// The incremental planners must reproduce their moves and their PRNG
// consumption exactly; TestIncrementalPlannersMatchReference checks it.

type refLocal struct{}

func (refLocal) Name() string { return "local" }

func (refLocal) Plan(st *sim.State) []core.Move {
	g := st.Inst.G
	counts := st.HaveCounts()
	rem := append([]int(nil), g.CapsByID()...)
	var sorter raritySorter
	var moves []core.Move
	for _, v := range st.Rand.Perm(st.Inst.N()) {
		in, ids := g.In(v), g.InArcIDs(v)
		if len(in) == 0 {
			continue
		}
		wanted := st.Missing(v)
		other := st.Lacking(v)
		other.DifferenceWith(wanted)
		tokens := appendTokensByRarity(&sorter, nil, wanted, counts, st.Rand)
		tokens = appendTokensByRarity(&sorter, tokens, other, counts, st.Rand)
		for _, t := range tokens {
			best, bestID, seen := -1, int32(0), 0
			for i, a := range in {
				if !st.Possess[a.From].Has(t) || rem[ids[i]] <= 0 {
					continue
				}
				seen++
				if st.Rand.Intn(seen) == 0 {
					best, bestID = a.From, ids[i]
				}
			}
			if best != -1 {
				rem[bestID]--
				moves = append(moves, core.Move{From: best, To: v, Token: t})
			}
		}
	}
	return moves
}

type refBandwidth struct{}

func (refBandwidth) Name() string { return "bandwidth" }

func (refBandwidth) Plan(st *sim.State) []core.Move {
	inst, g, n := st.Inst, st.Inst.G, st.Inst.N()
	type request struct{ v, t int }
	var requests []request
	for t := 0; t < inst.NumTokens; t++ {
		var needers, oneHop []int
		for v := 0; v < n; v++ {
			if inst.Want[v].Has(t) && !st.Possess[v].Has(t) {
				needers = append(needers, v)
			}
			if st.Possess[v].Has(t) {
				continue
			}
			for _, a := range g.In(v) {
				if st.Possess[a.From].Has(t) {
					oneHop = append(oneHop, v)
					break
				}
			}
		}
		if len(needers) == 0 || len(oneHop) == 0 {
			continue
		}
		// A full labelled multi-source BFS from the one-hop vertices.
		label := make([]int, n)
		for v := range label {
			label[v] = -1
		}
		queue := append([]int(nil), oneHop...)
		for _, v := range oneHop {
			label[v] = v
		}
		for head := 0; head < len(queue); head++ {
			for _, a := range g.Out(queue[head]) {
				if label[a.To] == -1 {
					label[a.To] = label[queue[head]]
					queue = append(queue, a.To)
				}
			}
		}
		requested := map[int]bool{}
		for _, d := range needers {
			if target := label[d]; target != -1 && !requested[target] {
				requested[target] = true
				requests = append(requests, request{target, t})
			}
		}
	}
	rem := append([]int(nil), g.CapsByID()...)
	var moves []core.Move
	for _, rq := range requests {
		best, bestLeft, bestID := -1, 0, int32(0)
		ids := g.InArcIDs(rq.v)
		for i, a := range g.In(rq.v) {
			if st.Possess[a.From].Has(rq.t) && rem[ids[i]] > bestLeft {
				best, bestLeft, bestID = a.From, rem[ids[i]], ids[i]
			}
		}
		if best != -1 {
			rem[bestID]--
			moves = append(moves, core.Move{From: best, To: rq.v, Token: rq.t})
		}
	}
	return moves
}

type refGlobal struct{}

func (refGlobal) Name() string { return "global" }

func (refGlobal) Plan(st *sim.State) []core.Move {
	inst, g, n := st.Inst, st.Inst.G, st.Inst.N()
	counts := st.HaveCounts()
	rem := append([]int(nil), g.CapsByID()...)
	inFlight := make([]int, inst.NumTokens)
	scheduled := make([]tokenset.Set, n)
	wantedLeft := make([]tokenset.Set, n)
	lackLeft := make([]tokenset.Set, n)
	for v := 0; v < n; v++ {
		scheduled[v] = tokenset.New(inst.NumTokens)
		wantedLeft[v] = st.Missing(v)
		lackLeft[v] = st.Lacking(v).Difference(wantedLeft[v])
	}
	var moves []core.Move
	perm := st.Rand.Perm(n)
	for assigned := true; assigned; {
		assigned = false
		for _, v := range perm {
			in, ids := g.In(v), g.InArcIDs(v)
			obtainable := tokenset.New(inst.NumTokens)
			anyCap := false
			for i, a := range in {
				if rem[ids[i]] > 0 {
					obtainable.UnionWith(st.Possess[a.From])
					anyCap = true
				}
			}
			if !anyCap {
				continue
			}
			obtainable.DifferenceWith(st.Possess[v])
			obtainable.DifferenceWith(scheduled[v])
			t := pickRarest(wantedLeft[v].Intersect(obtainable), counts, inFlight, n, st.Rand)
			if t == -1 {
				t = pickRarest(lackLeft[v].Intersect(obtainable), counts, inFlight, n, st.Rand)
			}
			if t == -1 {
				continue
			}
			best, bestLeft, bestID := -1, 0, int32(0)
			for i, a := range in {
				if st.Possess[a.From].Has(t) && rem[ids[i]] > bestLeft {
					best, bestLeft, bestID = a.From, rem[ids[i]], ids[i]
				}
			}
			if best == -1 {
				continue
			}
			rem[bestID]--
			scheduled[v].Add(t)
			wantedLeft[v].Remove(t)
			lackLeft[v].Remove(t)
			inFlight[t]++
			moves = append(moves, core.Move{From: best, To: v, Token: t})
			assigned = true
		}
	}
	return moves
}

// referenceCase is one instance the reference comparison runs.
type referenceCase struct {
	key  string
	inst *core.Instance
}

// referenceInstances covers the planners' branches: single-file (every
// receiver wants everything, so only wanted tokens are requested),
// multi-sender (disjoint wants, so diversity tokens matter), receiver
// density (non-receivers fetch only for diversity), and sizes on both
// sides of Bandwidth's holder/non-holder walk choice.
func referenceInstances(t *testing.T) []referenceCase {
	t.Helper()
	sizes := []int{12, 40, 70}
	if testing.Short() {
		sizes = sizes[:2]
	}
	var out []referenceCase
	for _, n := range sizes {
		g, err := topology.Random(n, topology.CapRange{Min: 1, Max: 3}, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		ms, err := workload.MultiSender(g, 48, 4, int64(n)+1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out,
			referenceCase{fmt.Sprintf("single/n%d", n), workload.SingleFile(g, 20)},
			referenceCase{fmt.Sprintf("multisender/n%d", n), ms},
			referenceCase{fmt.Sprintf("density/n%d", n), workload.ReceiverDensity(g, 30, 0.4, int64(n)+2)})
	}
	return out
}

func TestIncrementalPlannersMatchReference(t *testing.T) {
	planners := []struct {
		name string
		fast sim.Factory
		ref  sim.Strategy
	}{
		{"local", Local, refLocal{}},
		{"bandwidth", Bandwidth, refBandwidth{}},
		{"global", Global, refGlobal{}},
	}
	reference := func(s sim.Strategy) sim.Factory {
		return func(*core.Instance, *rand.Rand) (sim.Strategy, error) { return s, nil }
	}
	for _, c := range referenceInstances(t) {
		key, inst := c.key, c.inst
		for _, p := range planners {
			for seed := int64(1); seed <= 3; seed++ {
				opts := sim.Options{Seed: seed, IdlePatience: 5, MaxSteps: 200}
				want, werr := sim.Run(inst, reference(p.ref), opts)
				got, gerr := sim.Run(inst, p.fast, opts)
				if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(got.Schedule, want.Schedule) || got.Rejected != want.Rejected {
					t.Fatalf("%s/%s seed %d: schedule differs from the reference planner (err %v vs %v)", key, p.name, seed, gerr, werr)
				}
				// Crashes with state loss exercise the per-step views and
				// the holder index's invalidation.
				plan := fault.AtIntensity(1, seed, 0)
				fwant, werr := fault.Run(inst, reference(p.ref), plan, opts)
				fgot, gerr := fault.Run(inst, p.fast, plan, opts)
				if errors.Is(werr, sim.ErrStalled) != errors.Is(gerr, sim.ErrStalled) || !reflect.DeepEqual(fgot.Schedule, fwant.Schedule) {
					t.Fatalf("%s/%s seed %d: faulted schedule differs from the reference planner (err %v vs %v)", key, p.name, seed, gerr, werr)
				}
			}
		}
	}
}
