package heuristics

import (
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
)

// Bandwidth builds the §5.1 bandwidth-conserving heuristic: an online
// strategy, albeit with global knowledge, that "more cautiously adds tokens
// to a move". A vertex obtains a token in the next turn only if it will
// eventually use it, meaning either
//
//  1. it needs (wants and lacks) the token, or
//  2. it is the closest one-hop-knowledge vertex to a node that needs it,
//     where a one-hop-knowledge vertex for token t is one that could obtain
//     t in a single turn (it lacks t but has an in-neighbor possessing it).
//
// "Closest" is resolved with one labeled multi-source BFS per token per
// turn (every one-hop vertex floods forward; each needer adopts the first
// one-hop vertex to reach it), keeping the per-turn cost at
// O(tokens · (n + arcs)) so the heuristic scales to the paper's
// 1000-vertex sweeps.
var Bandwidth sim.Factory = newBandwidth

// bandwidthRequest is a (destination, token) pair the planner decided is
// useful to obtain this turn.
type bandwidthRequest struct{ v, t int }

type bandwidthStrategy struct {
	// Scratch buffers reused across turns.
	rem residual
	// label[v] is the one-hop vertex whose flood reached v first in the
	// current token's BFS, -1 if none; the BFS resets the entries it set.
	//ocd:scratch
	label []int
	//ocd:scratch
	queue []int
	// wantBy[t] is the set of vertices wanting t, the token-major transpose
	// of the want sets; wantOf identifies the Want slice it was built from.
	wantBy []tokenset.Set
	wantOf *tokenset.Set
	// need is the current token's needers, hop its one-hop vertices, and
	// rest the non-holders: vertex sets over [0, n).
	//ocd:scratch
	need tokenset.Set
	//ocd:scratch
	hop tokenset.Set
	//ocd:scratch
	rest tokenset.Set
	// requests/moves are per-turn work lists; seen is a generation-stamped
	// visited array (one generation per token per turn) replacing the old
	// per-turn map keyed by (target, token).
	//ocd:scratch
	requests []bandwidthRequest
	moves    []core.Move
	//ocd:scratch
	seen    []uint32
	seenGen uint32
}

func newBandwidth(inst *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
	n := inst.N()
	b := &bandwidthStrategy{
		label: make([]int, n),
		queue: make([]int, 0, n),
		need:  tokenset.New(n),
		hop:   tokenset.New(n),
		rest:  tokenset.New(n),
		seen:  make([]uint32, n),
	}
	for v := range b.label {
		b.label[v] = -1
	}
	return b, nil
}

func (b *bandwidthStrategy) Name() string { return "bandwidth" }

// wanters returns the per-token wanter sets of inst, rebuilding them when
// inst's want sets are not the ones last seen (the fault and dynamic
// engines' per-step views share the base instance's Want slice).
func (b *bandwidthStrategy) wanters(inst *core.Instance) []tokenset.Set {
	if len(inst.Want) == 0 || &inst.Want[0] != b.wantOf {
		b.wantBy = tokenset.NewSlab(inst.NumTokens, inst.N())
		for v, w := range inst.Want {
			w.ForEach(func(t int) bool {
				b.wantBy[t].Add(v)
				return true
			})
		}
		if len(inst.Want) > 0 {
			b.wantOf = &inst.Want[0]
		}
	}
	return b.wantBy
}

func (b *bandwidthStrategy) Plan(st *sim.State) []core.Move {
	inst := st.Inst
	g := inst.G
	holders := st.Holders()
	wantBy := b.wanters(inst)
	b.rem.reset(g)
	b.moves = b.moves[:0]
	b.requests = b.requests[:0]

	for t := 0; t < inst.NumTokens; t++ {
		has := holders[t]
		// Needers: vertices that want t and lack it.
		b.need.SetDifference(wantBy[t], has)
		if b.need.Empty() {
			continue
		}
		// One-hop-knowledge vertices for t: non-holders with a holder
		// in-neighbor. Both ways of finding them give the same set; walk
		// the out-arcs of the holders or the in-arcs of the non-holders,
		// whichever side is smaller.
		b.hop.Clear()
		b.rest.Fill()
		b.rest.DifferenceWith(has)
		if has.Count() <= b.rest.Count() {
			has.ForEach(func(u int) bool {
				for _, a := range g.Out(u) {
					b.hop.Add(a.To)
				}
				return true
			})
			b.hop.DifferenceWith(has)
		} else {
			b.rest.ForEach(func(v int) bool {
				for _, a := range g.In(v) {
					if has.Has(a.From) {
						b.hop.Add(v)
						break
					}
				}
				return true
			})
		}
		if b.hop.Empty() {
			continue
		}
		b.flood(g)
		// Dedupe targets within this token's needer pass: bump the
		// generation instead of clearing (or allocating) a visited set.
		b.seenGen++
		if b.seenGen == 0 { // generation counter wrapped: reset stamps
			clear(b.seen)
			b.seenGen = 1
		}
		b.need.ForEach(func(d int) bool {
			// d itself if one-hop, else its closest one-hop vertex; -1 if
			// no one-hop vertex reaches d yet.
			if target := b.label[d]; target != -1 && b.seen[target] != b.seenGen {
				b.seen[target] = b.seenGen
				b.requests = append(b.requests, bandwidthRequest{v: target, t: t})
			}
			return true
		})
		for _, v := range b.queue {
			b.label[v] = -1
		}
	}

	// Assign each (vertex, token) request to a holder in-neighbor with
	// residual capacity, preferring the neighbor with the most spare
	// capacity so rare slots are saved for constrained arcs.
	for _, rq := range b.requests {
		has := holders[rq.t]
		in := g.In(rq.v)
		inIDs := g.InArcIDs(rq.v)
		best, bestLeft := -1, 0
		var bestID int32
		for i, a := range in {
			if !has.Has(a.From) {
				continue
			}
			if l := b.rem.leftID(inIDs[i]); l > bestLeft {
				best, bestLeft, bestID = a.From, l, inIDs[i]
			}
		}
		if best == -1 {
			continue
		}
		b.rem.takeID(bestID)
		b.moves = append(b.moves, core.Move{From: best, To: rq.v, Token: rq.t})
	}
	return b.moves
}

// flood runs the labeled multi-source BFS from the one-hop vertices in hop:
// label[d] becomes the one-hop vertex that reaches d first (sources are
// seeded in ascending ID order, so distance ties break toward lower IDs
// deterministically). A label, once set, is final, so the search stops as
// soon as every needer in need carries one. queue ends up holding every
// labeled vertex.
func (b *bandwidthStrategy) flood(g *graph.Graph) {
	b.queue = b.hop.AppendTo(b.queue[:0])
	for _, v := range b.queue {
		b.label[v] = v
	}
	out := b.need.DifferenceCount(b.hop) // needers still unlabeled
	for head := 0; head < len(b.queue) && out > 0; head++ {
		u := b.queue[head]
		for _, a := range g.Out(u) {
			if b.label[a.To] == -1 {
				b.label[a.To] = b.label[u]
				b.queue = append(b.queue, a.To)
				if b.need.Has(a.To) {
					out--
				}
			}
		}
	}
}
