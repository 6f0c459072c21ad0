package heuristics

import (
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
)

// Global builds the §5.1 global heuristic: the general case of Local where
// vertices coordinate within each timestep to maximize diversity. The
// coordination removes the need for requests — the planner sees everything
// and guarantees a destination receives a token at most once per turn.
//
// As in the paper, the planner is a greedy selection over tokens and edges
// rather than an exhaustive matching ("not guaranteed to maximize
// diversity … to allow the heuristic to function at large scale"): it runs
// interleaved rounds in which every destination claims one more token,
// choosing the token with the lowest effective rarity, where copies already
// scheduled this turn count heavily against a token. Wanted tokens are
// claimed before diversity-only tokens.
var Global sim.Factory = newGlobal

// globalStrategy owns the per-run scratch: the per-destination claim and
// obtainable sets, the per-token in-flight counters and the active list are
// cleared and refilled at the top of every Plan call instead of being
// reallocated.
type globalStrategy struct {
	rem residual
	//ocd:scratch
	inFlight []int
	// scheduled[v] holds the tokens already planned for delivery to v this
	// turn.
	//ocd:scratch
	scheduled []tokenset.Set
	// obtainable[v] caches the tokens v could still pull this turn: the
	// union of the possession of v's in-neighbors whose arc has residual
	// capacity, minus p(v) and scheduled[v]. Only v's own claims consume
	// v's in-arcs and grow scheduled[v], so the cache stays exact across
	// claim rounds: a claim of t removes t, and only a claim that exhausts
	// an arc forces a rebuild.
	//ocd:scratch
	obtainable []tokenset.Set
	//ocd:scratch
	pickable tokenset.Set
	//ocd:scratch
	perm []int
	// active lists, in perm order, the destinations that can still claim.
	// A destination's obtainable set only shrinks within a turn, so one
	// that has nothing to claim is dropped for the rest of the turn.
	//ocd:scratch
	active []int
	moves  []core.Move
}

func newGlobal(inst *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
	n := inst.N()
	return &globalStrategy{
		inFlight:   make([]int, inst.NumTokens),
		scheduled:  tokenset.NewSlab(n, inst.NumTokens),
		obtainable: tokenset.NewSlab(n, inst.NumTokens),
		pickable:   tokenset.New(inst.NumTokens),
	}, nil
}

func (g *globalStrategy) Name() string { return "global" }

func (g *globalStrategy) Plan(st *sim.State) []core.Move {
	inst := st.Inst
	n := inst.N()
	counts := st.HaveCounts()
	g.rem.reset(inst.G)
	clear(g.inFlight)
	g.moves = g.moves[:0]

	g.perm = permInto(g.perm, st.Rand, n)
	g.active = g.active[:0]
	for _, v := range g.perm {
		g.scheduled[v].Clear()
		if g.refresh(st, v) {
			g.active = append(g.active, v)
		}
	}
	// Interleaved rounds: every active destination claims one more token
	// per round, until a round claims nothing. A destination leaves the
	// active list exactly when the full rescan would have found nothing to
	// claim for it, and such a scan draws nothing from the PRNG.
	for len(g.active) > 0 {
		still := g.active[:0]
		for _, v := range g.active {
			t := pickDiverse(g.pickable, g.obtainable[v], inst.Want[v], counts, g.inFlight, n, st.Rand)
			if t == -1 {
				continue
			}
			// Claim t from the holder neighbor with the most spare
			// capacity. t is obtainable, so some holder has capacity left.
			in := inst.G.In(v)
			inIDs := inst.G.InArcIDs(v)
			best, bestLeft := -1, 0
			var bestID int32
			for i, a := range in {
				if !st.Possess[a.From].Has(t) {
					continue
				}
				if l := g.rem.leftID(inIDs[i]); l > bestLeft {
					best, bestLeft, bestID = a.From, l, inIDs[i]
				}
			}
			g.rem.takeID(bestID)
			g.scheduled[v].Add(t)
			g.obtainable[v].Remove(t)
			g.inFlight[t]++
			g.moves = append(g.moves, core.Move{From: best, To: v, Token: t})
			if bestLeft == 1 && !g.refresh(st, v) {
				continue // the claim exhausted v's last useful arc
			}
			still = append(still, v)
		}
		g.active = still
	}
	return g.moves
}

// refresh rebuilds obtainable[v] from v's in-arcs with residual capacity
// and reports whether it is non-empty.
func (g *globalStrategy) refresh(st *sim.State, v int) bool {
	obt := g.obtainable[v]
	obt.Clear()
	inIDs := st.Inst.G.InArcIDs(v)
	for i, a := range st.Inst.G.In(v) {
		if g.rem.leftID(inIDs[i]) > 0 {
			obt.UnionWith(st.Possess[a.From])
		}
	}
	obt.DifferenceWith(st.Possess[v])
	obt.DifferenceWith(g.scheduled[v])
	return !obt.Empty()
}

// pickDiverse selects the next token for a destination that wants want:
// among the wanted tokens of obtainable if any, otherwise among the rest
// (diversity tokens); within the class it minimizes counts[t] +
// n·inFlight[t], so a token already scheduled this turn is treated as more
// common than any unscheduled one. Returns -1 when obtainable is empty.
// obtainable never holds a token the destination has or was already
// scheduled, so the classes are obtainable ∩ want and obtainable \ want.
// scratch is overwritten with the class being scored.
func pickDiverse(scratch, obtainable, want tokenset.Set, counts, inFlight []int, n int, rng *rand.Rand) int {
	scratch.SetIntersection(obtainable, want)
	if t := pickRarest(scratch, counts, inFlight, n, rng); t != -1 {
		return t
	}
	scratch.SetDifference(obtainable, want)
	return pickRarest(scratch, counts, inFlight, n, rng)
}

// pickRarest returns the token of class with the lowest counts[t] +
// n·inFlight[t], reservoir-sampling ties with rng, or -1 if class is empty.
func pickRarest(class tokenset.Set, counts, inFlight []int, n int, rng *rand.Rand) int {
	best, bestScore, seen := -1, 0, 0
	class.ForEach(func(t int) bool {
		score := counts[t] + n*inFlight[t]
		switch {
		case best == -1 || score < bestScore:
			best, bestScore, seen = t, score, 1
		case score == bestScore:
			// Reservoir-sample ties for the rarest-*random* behaviour.
			seen++
			if rng.Intn(seen) == 0 {
				best = t
			}
		}
		return true
	})
	return best
}
