// Package heuristics implements the five distribution strategies evaluated
// in §5.1 of the paper:
//
//   - Round Robin: per-arc circular token queue; purely local knowledge.
//   - Random: uniform random choice among tokens the peer lacks; requires
//     knowledge of each peer's possession at the start of the turn.
//   - Local: "rarest random" with per-step global aggregate vectors of what
//     vertices want and do not have, and per-peer request subdivision so two
//     peers do not send the same rare token to the same destination.
//   - Bandwidth: online but with global knowledge; a vertex obtains only
//     tokens it will eventually use — tokens it needs, or tokens for which
//     it is the closest one-hop-knowledge vertex to some needer.
//   - Global: coordinated greedy selection over all tokens and arcs that
//     maximizes diversity (the paper's large-scale greedy stand-in for
//     exhaustive matching).
//
// Every strategy is packaged as a sim.Factory; the engine in internal/sim
// enforces the model constraints on whatever the strategies propose.
package heuristics

import (
	"math/rand"

	"ocd/internal/graph"
	"ocd/internal/tokenset"

	"ocd/internal/sim"
)

// Named returns the factory registered under name, if any.
func Named(name string) (sim.Factory, bool) {
	switch name {
	case "roundrobin", "round-robin", "rr":
		return RoundRobin, true
	case "random", "rand":
		return Random, true
	case "local", "rarest", "rarest-random":
		return Local, true
	case "bandwidth", "bw":
		return Bandwidth, true
	case "global":
		return Global, true
	default:
		return nil, false
	}
}

// Names lists the canonical heuristic names in the order the paper
// introduces them.
func Names() []string {
	return []string{"roundrobin", "random", "local", "bandwidth", "global"}
}

// All returns the factories in the same order as Names.
func All() []sim.Factory {
	return []sim.Factory{RoundRobin, Random, Local, Bandwidth, Global}
}

// residual tracks per-arc remaining capacity within a single timestep as a
// dense slice indexed by the graph's arc IDs. Each strategy owns one as a
// scratch buffer and resets it at the top of every Plan call from the
// step's effective graph — under the fault/dynamic engines that is the
// step's view, whose arc IDs are its own rather than the base graph's.
// take and left resolve u→v through the view's adjacency index.
type residual struct {
	g *graph.Graph
	//ocd:scratch
	rem []int
}

// reset points the residual at g and restores every arc to full capacity.
func (r *residual) reset(g *graph.Graph) {
	r.g = g
	caps := g.CapsByID()
	if cap(r.rem) < len(caps) {
		r.rem = make([]int, len(caps))
	}
	r.rem = r.rem[:len(caps)]
	copy(r.rem, caps)
}

// takeID consumes one unit of the arc with the given dense ID.
func (r *residual) takeID(id int32) { r.rem[id]-- }

// leftID returns the remaining capacity of the arc with the given dense ID.
func (r *residual) leftID(id int32) int { return r.rem[id] }

// take consumes one unit of arc u→v if any capacity remains.
func (r *residual) take(u, v int) bool {
	id := r.g.ArcID(u, v)
	if id < 0 || r.rem[id] <= 0 {
		return false
	}
	r.rem[id]--
	return true
}

// left returns the remaining capacity of arc u→v (0 if absent).
func (r *residual) left(u, v int) int {
	id := r.g.ArcID(u, v)
	if id < 0 {
		return 0
	}
	return r.rem[id]
}

// raritySorter holds the reusable scratch for the stable sort-by-count on
// the per-vertex hot path: a counting-sort bucket array and a staging
// buffer. One lives in each rarest-random strategy so sorting allocates
// nothing in steady state.
type raritySorter struct {
	//ocd:scratch
	bucket []int
	//ocd:scratch
	tmp []int
}

// sortByCount stably sorts tokens ascending by counts[t]. A two-pass
// counting sort over the counts actually present, [lo, hi], is O(k + hi −
// lo) and — being stable — preserves the pre-shuffled order among
// equal-rarity tokens exactly as a sort.SliceStable would. Small inputs
// fall back to a stable insertion sort to skip the bucket reset.
func (r *raritySorter) sortByCount(tokens []int, counts []int) {
	if len(tokens) < 16 {
		for i := 1; i < len(tokens); i++ {
			t := tokens[i]
			j := i - 1
			for j >= 0 && counts[tokens[j]] > counts[t] {
				tokens[j+1] = tokens[j]
				j--
			}
			tokens[j+1] = t
		}
		return
	}
	lo, hi := counts[tokens[0]], counts[tokens[0]]
	for _, t := range tokens[1:] {
		c := counts[t]
		if c < lo {
			lo = c
		} else if c > hi {
			hi = c
		}
	}
	if lo == hi {
		return // one rarity class: the stable order is the input order
	}
	span := hi - lo + 2
	if cap(r.bucket) < span {
		r.bucket = make([]int, span)
	}
	bucket := r.bucket[:span]
	clear(bucket)
	for _, t := range tokens {
		bucket[counts[t]-lo+1]++
	}
	for c := 1; c < len(bucket); c++ {
		bucket[c] += bucket[c-1]
	}
	if cap(r.tmp) < len(tokens) {
		r.tmp = make([]int, len(tokens))
	}
	tmp := r.tmp[:len(tokens)]
	for _, t := range tokens {
		c := counts[t] - lo
		tmp[bucket[c]] = t
		bucket[c]++
	}
	copy(tokens, tmp)
}

// appendTokensByRarity appends the tokens of set to buf ordered by ascending
// have-count (rarest first), and returns the extended buffer: appendShuffled
// followed by one stable sort keyed by count. Stability preserves the
// shuffled order among equal-rarity tokens, which is the tie-diversification
// the §5.1 rarest-random family relies on.
func appendTokensByRarity(sorter *raritySorter, buf []int, set tokenset.Set, counts []int, rng *rand.Rand) []int {
	start := len(buf)
	buf = appendShuffled(buf, set, rng)
	sorter.sortByCount(buf[start:], counts)
	return buf
}

// appendShuffled appends the tokens of set to buf in a Fisher-Yates order
// drawn from rng and returns the extended buffer.
func appendShuffled(buf []int, set tokenset.Set, rng *rand.Rand) []int {
	start := len(buf)
	buf = set.AppendTo(buf)
	tokens := buf[start:]
	for i := len(tokens) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		tokens[i], tokens[j] = tokens[j], tokens[i]
	}
	return buf
}

// permInto writes a random permutation of [0, n) into buf, growing it as
// needed, and returns it. It replicates math/rand.Perm's algorithm exactly
// so it consumes the identical rand stream while avoiding the per-call
// allocation.
func permInto(buf []int, rng *rand.Rand, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}
