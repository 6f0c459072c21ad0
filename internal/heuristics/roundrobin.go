package heuristics

import (
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/sim"
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
			cur := r.cursor[id]
			next, sent := cur, 0
			// One full cycle at most: skip tokens u does not have.
			for scanned := 0; scanned < m && sent < a.Cap; scanned++ {
				t := (cur + scanned) % m
				if !have.Has(t) {
					continue
				}
				moves = append(moves, core.Move{From: u, To: a.To, Token: t})
				sent++
				next = (t + 1) % m
			}
			r.cursor[id] = next
		}
	}
	r.moves = moves
	return moves
}
