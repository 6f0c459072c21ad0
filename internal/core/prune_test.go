package core

import (
	"math/rand"
	"reflect"
	"testing"

	"ocd/internal/graph"
	"ocd/internal/tokenset"
)

// appendPrune is the append-based §5.1 pruning pass that Prune replaced:
// per-step kept/final slices grown move by move. It stays as the oracle
// the keep-mark implementation is checked against.
func appendPrune(inst *Instance, sched *Schedule) *Schedule {
	cur := inst.InitialPossession()
	kept := make([]Step, len(sched.Steps))
	for i, st := range sched.Steps {
		for _, mv := range st {
			if cur[mv.To].Has(mv.Token) {
				continue
			}
			cur[mv.To].Add(mv.Token)
			kept[i] = append(kept[i], mv)
		}
	}
	needed := make([]tokenset.Set, inst.N())
	for v := range needed {
		needed[v] = inst.Want[v].Clone()
	}
	final := make([]Step, len(kept))
	for i := len(kept) - 1; i >= 0; i-- {
		for _, mv := range kept[i] {
			if !needed[mv.To].Has(mv.Token) {
				continue
			}
			final[i] = append(final[i], mv)
		}
		for _, mv := range final[i] {
			needed[mv.From].Add(mv.Token)
		}
	}
	out := &Schedule{}
	for _, st := range final {
		if len(st) > 0 {
			out.Steps = append(out.Steps, st)
		}
	}
	return out
}

// messySchedule builds a random valid schedule that exercises every branch
// of Prune: empty steps (nil and zero-length), deliveries of tokens the
// destination already has, two senders delivering the same token to one
// destination in the same step, and relays of tokens delivered earlier. It
// stops after steps timesteps whether or not the wants are satisfied.
func messySchedule(inst *Instance, rng *rand.Rand, steps int) *Schedule {
	sched := &Schedule{}
	possess := inst.InitialPossession()
	arcs := inst.G.Arcs()
	for i := 0; i < steps; i++ {
		switch rng.Intn(6) {
		case 0:
			sched.Append(nil)
			continue
		case 1:
			sched.Append(Step{})
			continue
		}
		var st Step
		for _, a := range arcs {
			sent := 0
			possess[a.From].ForEach(func(tok int) bool {
				if sent < a.Cap && rng.Intn(3) == 0 {
					st = append(st, Move{From: a.From, To: a.To, Token: tok})
					sent++
				}
				return sent < a.Cap
			})
		}
		rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
		for _, mv := range st {
			possess[mv.To].Add(mv.Token)
		}
		sched.Append(st)
	}
	return sched
}

// randomInstance draws a connected random instance with several holders
// and wanters per token.
func randomInstance(rng *rand.Rand, n, m int) *Instance {
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		// Errors are impossible here: endpoints are distinct and in range.
		_ = g.AddEdge(perm[i], perm[rng.Intn(i)], 1+rng.Intn(3))
	}
	for e := 0; e < n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasArc(u, v) {
			_ = g.AddEdge(u, v, 1+rng.Intn(3))
		}
	}
	inst := NewInstance(g, m)
	for tok := 0; tok < m; tok++ {
		inst.Have[rng.Intn(n)].Add(tok)
		for k := rng.Intn(n); k >= 0; k-- {
			inst.Want[rng.Intn(n)].Add(tok)
		}
	}
	return inst
}

func TestPruneMatchesAppendOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		inst := randomInstance(rng, 2+rng.Intn(12), 1+rng.Intn(70))
		sched := messySchedule(inst, rng, rng.Intn(25))
		if err := ValidateConstraints(inst, sched); err != nil {
			t.Fatalf("trial %d: generated schedule invalid: %v", trial, err)
		}
		want := appendPrune(inst, sched)
		got := Prune(inst, sched)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Prune differs from the append oracle\n got %v\nwant %v", trial, got.Steps, want.Steps)
		}
	}
}

func TestPruneOutputStepsDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randomInstance(rng, 10, 20)
	pruned := Prune(inst, messySchedule(inst, rng, 30))
	if len(pruned.Steps) < 2 {
		t.Skip("need two kept steps")
	}
	second := append(Step(nil), pruned.Steps[1]...)
	pruned.Steps[0] = append(pruned.Steps[0], Move{From: -1, To: -1, Token: -1})
	if !reflect.DeepEqual(pruned.Steps[1], second) {
		t.Fatal("appending to one pruned step overwrote the next")
	}
}

func TestPruneEmptySchedule(t *testing.T) {
	inst := lineInstance(t, 3, 2, 1)
	for _, sched := range []*Schedule{{}, {Steps: []Step{nil, {}}}} {
		if got := Prune(inst, sched); got.Steps != nil {
			t.Errorf("Prune(%v) = %v, want no steps", sched.Steps, got.Steps)
		}
	}
}
