package heuristics

import (
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
)

// RoundRobin builds the paper's simplest heuristic: each vertex cycles a
// circular queue of token IDs per outgoing arc, sending the next tokens it
// possesses up to the arc capacity. It needs no knowledge beyond the local
// token store and the per-arc cursor, and consequently re-sends tokens the
// peer already has and duplicates what other peers send (§5.1).
var RoundRobin sim.Factory = newRoundRobin

type roundRobin struct {
	// cursor holds, per arc of the base graph (the instance the strategy
	// was built for), the token ID after the last one sent. It persists
	// across timesteps, and the fault/dynamic engines plan against a
	// per-step view with its own arc IDs, so view arcs are mapped back to
	// base IDs by an adjacency lookup; on the base graph itself the IDs
	// coincide. Every view is a subgraph of the base graph.
	base   *graph.Graph
	cursor []int
	moves  []core.Move
}

func newRoundRobin(inst *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
	return &roundRobin{base: inst.G, cursor: make([]int, inst.G.NumArcs())}, nil
}

func (r *roundRobin) Name() string { return "roundrobin" }

func (r *roundRobin) Plan(st *sim.State) []core.Move {
	m := st.Inst.NumTokens
	g := st.Inst.G
	moves := r.moves[:0]
	for u := 0; u < st.Inst.N(); u++ {
		have := st.Possess[u]
		if have.Empty() {
			continue
		}
		ids := g.OutArcIDs(u)
		for i, a := range g.Out(u) {
			id := int(ids[i])
			if g != r.base {
				id = r.base.ArcID(a.From, a.To)
			}
			moves, r.cursor[id] = appendRoundRobin(moves, have, r.cursor[id], a.Cap, m, u, a.To)
		}
	}
	r.moves = moves
	return moves
}

// appendRoundRobin appends up to capacity moves u→to of the tokens in have,
// taken in circular order from the cursor cur, and returns the moves and
// the arc's next cursor (the token after the last one sent, mod m; cur if
// nothing was sent). It walks have's bits with NextAfter, wrapping to First
// once, so it visits only tokens u has instead of scanning all m IDs.
func appendRoundRobin(moves []core.Move, have tokenset.Set, cur, capacity, m, u, to int) ([]core.Move, int) {
	next := cur
	t, wrapped := have.NextAfter(cur-1), false
	for sent := 0; sent < capacity; sent++ {
		if t < 0 && !wrapped {
			t, wrapped = have.First(), true
		}
		if t < 0 || (wrapped && t >= cur) {
			break // one full cycle done
		}
		moves = append(moves, core.Move{From: u, To: to, Token: t})
		next = (t + 1) % m
		t = have.NextAfter(t)
	}
	return moves, next
}
