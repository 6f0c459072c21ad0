package heuristics

import (
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
)

// LocalDelayed builds the §5.1 relaxation of the Local heuristic in which
// peers know each other's state as of `delay` turns ago instead of the
// current turn ("further exploration may also relax this requirement,
// instead allowing peers to know about the state 'k' turns ago").
//
// Possession is monotone, so a stale view is always a subset of the truth:
// requests planned from it remain valid, but rarity estimates lag and
// deliveries may duplicate what a peer already obtained meanwhile — the
// cost of stale knowledge that the delay ablation measures.
func LocalDelayed(delay int) sim.Factory {
	return func(_ *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
		if delay < 0 {
			delay = 0
		}
		return &localDelayed{delay: delay}, nil
	}
}

type localDelayed struct {
	delay   int
	history [][]tokenset.Set

	// Per-turn scratch; the snapshots in history must stay fresh
	// allocations (they are the strategy's memory), but the planning
	// buffers are reused.
	rem    residual
	sorter raritySorter
	//ocd:scratch
	counts []int
	//ocd:scratch
	perm []int
	//ocd:scratch
	wanted tokenset.Set
	//ocd:scratch
	other tokenset.Set
	//ocd:scratch
	tokens []int
	moves  []core.Move
}

func (l *localDelayed) Name() string {
	if l.delay == 0 {
		return "local"
	}
	return "local-delayed"
}

func (l *localDelayed) Plan(st *sim.State) []core.Move {
	// Record the current truth, then plan from the view `delay` turns old.
	snapshot := make([]tokenset.Set, len(st.Possess))
	for v := range st.Possess {
		snapshot[v] = st.Possess[v].Clone()
	}
	l.history = append(l.history, snapshot)
	idx := len(l.history) - 1 - l.delay
	if idx < 0 {
		idx = 0
	}
	view := l.history[idx]

	// Rarity comes from the stale view, not the engine's live counts — a
	// delayed peer cannot know about deliveries it has not heard of yet.
	if l.counts == nil {
		l.counts = make([]int, st.Inst.NumTokens)
	}
	clear(l.counts)
	for v := range view {
		view[v].ForEach(func(t int) bool {
			l.counts[t]++
			return true
		})
	}
	if l.wanted.Universe() != st.Inst.NumTokens {
		l.wanted = tokenset.New(st.Inst.NumTokens)
		l.other = tokenset.New(st.Inst.NumTokens)
	}

	l.rem.reset(st.Inst.G)
	l.moves = l.moves[:0]
	l.perm = permInto(l.perm, st.Rand, st.Inst.N())
	for _, v := range l.perm {
		if len(st.Inst.G.In(v)) == 0 {
			continue
		}
		// Own state is always current; peer states come from the view.
		st.MissingInto(v, l.wanted)
		st.LackingInto(v, l.other)
		l.other.DifferenceWith(l.wanted)
		l.tokens = appendTokensByRarity(&l.sorter, l.tokens[:0], l.wanted, l.counts, st.Rand)
		wantedEnd := len(l.tokens)
		l.tokens = appendTokensByRarity(&l.sorter, l.tokens, l.other, l.counts, st.Rand)
		// Wanted before diversity, via plain calls so the scratch buffer
		// never lands in a composite literal (see localStrategy.requestClass).
		l.requestClass(st, view, v, l.tokens[:wantedEnd])
		l.requestClass(st, view, v, l.tokens[wantedEnd:])
	}
	return l.moves
}

// requestClass assigns each token in class to a random in-neighbor of v
// holding it in the stale view, with residual capacity, in class order.
func (l *localDelayed) requestClass(st *sim.State, view []tokenset.Set, v int, class []int) {
	in := st.Inst.G.In(v)
	inIDs := st.Inst.G.InArcIDs(v)
	for _, t := range class {
		best := -1
		var bestID int32
		seen := 0
		for i, a := range in {
			if !view[a.From].Has(t) || l.rem.leftID(inIDs[i]) <= 0 {
				continue
			}
			seen++
			if st.Rand.Intn(seen) == 0 {
				best, bestID = a.From, inIDs[i]
			}
		}
		if best == -1 {
			continue
		}
		l.rem.takeID(bestID)
		l.moves = append(l.moves, core.Move{From: best, To: v, Token: t})
	}
}
