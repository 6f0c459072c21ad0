package heuristics

import (
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
)

// Local builds the §5.1 "rarest random" heuristic. At the start of every
// timestep the aggregate have/want vectors are distributed to all vertices
// (the paper assumes a multicast tree does this). Each vertex then requests
// the tokens it lacks from its in-neighbors, rarest first, subdividing its
// needs across distinct neighbors so that two peers do not send the same
// rare token to the same destination. Tokens the vertex actually wants are
// requested before tokens fetched only to increase diversity (the general-
// problem extension: both the want aggregate and the not-have aggregate are
// distributed).
var Local sim.Factory = newLocal

// localStrategy owns the per-run scratch buffers; everything below is
// overwritten at the top of each Plan call, so a run's steady state plans a
// whole timestep without heap allocation (beyond the returned moves growing
// once to their high-water mark).
type localStrategy struct {
	rem    residual
	sorter raritySorter
	//ocd:scratch
	perm []int
	//ocd:scratch
	wanted tokenset.Set
	//ocd:scratch
	other tokenset.Set
	// near holds the tokens some in-neighbor of the current vertex has.
	//ocd:scratch
	near tokenset.Set
	//ocd:scratch
	tokens []int
	moves  []core.Move
}

func newLocal(inst *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
	return &localStrategy{
		wanted: tokenset.New(inst.NumTokens),
		other:  tokenset.New(inst.NumTokens),
		near:   tokenset.New(inst.NumTokens),
	}, nil
}

func (l *localStrategy) Name() string { return "local" }

func (l *localStrategy) Plan(st *sim.State) []core.Move {
	counts := st.HaveCounts()
	l.rem.reset(st.Inst.G)
	l.moves = l.moves[:0]
	l.perm = permInto(l.perm, st.Rand, st.Inst.N())
	for _, v := range l.perm {
		l.appendRequests(st, counts, v)
	}
	return l.moves
}

// appendRequests assigns vertex v's missing tokens to in-neighbor holders
// with residual capacity, wanted tokens first, rarest first within each
// class.
//
// A token no in-neighbor holds has no candidate holder, and a token with no
// candidate draws nothing from the PRNG. So after the shuffles (which must
// see the whole classes) such tokens are dropped before sorting — stable
// sorting commutes with filtering — and requesting stops once v's in-arc
// capacity is spent: only v's own requests consume v's in-arcs, so v
// starts with them at full capacity, and once it is spent no later token
// can find a holder. The rand stream is the one a full scan would consume.
func (l *localStrategy) appendRequests(st *sim.State, counts []int, v int) {
	g := st.Inst.G
	in := g.In(v)
	if len(in) == 0 {
		return
	}
	st.MissingInto(v, l.wanted)
	st.LackingInto(v, l.other)
	l.other.DifferenceWith(l.wanted)
	// Both classes are shuffled before any holder is drawn, matching the
	// rand-stream order of the original two-slice formulation.
	l.tokens = appendShuffled(l.tokens[:0], l.wanted, st.Rand)
	wantedEnd := len(l.tokens)
	l.tokens = appendShuffled(l.tokens, l.other, st.Rand)
	l.near.Clear()
	for _, a := range in {
		l.near.UnionWith(st.Possess[a.From])
	}
	left := 0
	for _, id := range g.InArcIDs(v) {
		left += l.rem.leftID(id)
	}
	// Wanted tokens before diversity tokens; sorting draws nothing, so the
	// diversity class is sorted only if capacity is left. Passing the
	// reslices as plain call arguments keeps the scratch buffer out of any
	// composite literal, which scratchalias cannot prove transient.
	wanted := keepHeld(l.tokens[:wantedEnd], l.near)
	l.sorter.sortByCount(wanted, counts)
	left = l.requestClass(st, v, wanted, left)
	if left > 0 {
		other := keepHeld(l.tokens[wantedEnd:], l.near)
		l.sorter.sortByCount(other, counts)
		l.requestClass(st, v, other, left)
	}
}

// keepHeld compacts tokens in place to those in near, keeping their order,
// and returns the shortened slice.
func keepHeld(tokens []int, near tokenset.Set) []int {
	k := 0
	for _, t := range tokens {
		if near.Has(t) {
			tokens[k] = t
			k++
		}
	}
	return tokens[:k]
}

// requestClass assigns each token in class to a random in-neighbor holder
// of v with residual capacity, in class order, and returns the in-arc
// capacity v has left (left is the capacity on entry).
func (l *localStrategy) requestClass(st *sim.State, v int, class []int, left int) int {
	in := st.Inst.G.In(v)
	inIDs := st.Inst.G.InArcIDs(v)
	for _, t := range class {
		if left == 0 {
			break
		}
		// Pick a random holder among in-neighbors with spare capacity.
		best := -1
		var bestID int32
		seen := 0
		for i, a := range in {
			if !st.Possess[a.From].Has(t) || l.rem.leftID(inIDs[i]) <= 0 {
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
		left--
		l.moves = append(l.moves, core.Move{From: best, To: v, Token: t})
	}
	return left
}
