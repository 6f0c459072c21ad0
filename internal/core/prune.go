package core

import (
	"math/bits"

	"ocd/internal/tokenset"
)

// Prune implements the §5.1 post-pass: "Pruning first removes all moves
// that deliver a token repeatedly to the same vertex, and then works back
// from the last move to the first, removing moves that deliver tokens which
// were never used by the destination vertex."
//
// A delivered token is "used" if the destination wants it or if a kept
// later move sends it onward. Pruning never invalidates a valid schedule,
// never increases the move count, and preserves success; trailing and
// interior timesteps left empty are dropped (possession is monotone, so
// compressing empty steps keeps every constraint satisfied).
//
// Both passes only mark moves: keep holds one bit per move of sched, in
// schedule order, and the output is built at the end in one exact-size
// move array that its steps slice into. Pass 2 and the output visit only
// the moves whose bit is still set, a word of marks at a time, so a
// schedule full of duplicates (Round Robin's) costs little beyond pass 1's
// one read of every move.
func Prune(inst *Instance, sched *Schedule) *Schedule {
	keep := keepMarks(make([]uint64, (sched.Moves()+63)/64))

	// Pass 1: drop duplicate deliveries. A move is redundant if the
	// destination already possesses the token at the moment of delivery
	// (including an earlier kept move in the same timestep). Marking the
	// possession as each move is kept makes the within-step duplicate check
	// the same O(1) set probe as the cross-step one: pass 1 never reads
	// cur[v] for anything except (destination, token) membership, so the
	// early add is indistinguishable from the end-of-step add.
	cur := tokenset.NewSlab(inst.N(), inst.NumTokens)
	for v, h := range inst.Have {
		cur[v].CopyFrom(h)
	}
	k := 0
	for _, st := range sched.Steps {
		for _, mv := range st {
			if cur[mv.To].Insert(mv.Token) {
				keep.set(k)
			}
			k++
		}
	}

	// Pass 2: backward sweep. needed[v] holds the tokens vertex v must
	// possess because it wants them or because a kept later move sends
	// them from v. The slab of pass 1 is reused: cur is dead by now.
	needed := cur
	for v, w := range inst.Want {
		needed[v].CopyFrom(w)
	}
	kept, steps := 0, 0
	for i := len(sched.Steps) - 1; i >= 0; i-- {
		st := sched.Steps[i]
		hi := k
		k -= len(st)
		// A kept move's sender must possess the token before this step;
		// protect its (unique, by pass 1) earlier delivery or initial copy.
		// Filtering and protecting in one sweep is safe: a sender holds its
		// token at the start of the step, so no move of the same step that
		// delivers that token to it survived pass 1.
		n := 0
		for wi := k >> 6; wi<<6 < hi; wi++ {
			for w := keep.word(wi, k, hi); w != 0; w &= w - 1 {
				j := wi<<6 + bits.TrailingZeros64(w)
				if mv := st[j-k]; needed[mv.To].Has(mv.Token) {
					needed[mv.From].Add(mv.Token)
					n++
				} else {
					keep.clear(j) // delivery never used downstream
				}
			}
		}
		kept += n
		if n > 0 {
			steps++
		}
	}

	out := &Schedule{}
	if steps == 0 {
		return out
	}
	moves := make([]Move, 0, kept)
	out.Steps = make([]Step, 0, steps)
	for _, st := range sched.Steps {
		start, hi := len(moves), k+len(st)
		for wi := k >> 6; wi<<6 < hi; wi++ {
			for w := keep.word(wi, k, hi); w != 0; w &= w - 1 {
				moves = append(moves, st[wi<<6+bits.TrailingZeros64(w)-k])
			}
		}
		k = hi
		if len(moves) > start {
			// Capped, so appending to one step cannot overwrite the next.
			out.Steps = append(out.Steps, moves[start:len(moves):len(moves)])
		}
	}
	return out
}

// keepMarks is Prune's bitset over move indices.
type keepMarks []uint64

func (m keepMarks) set(i int)   { m[i>>6] |= 1 << (i & 63) }
func (m keepMarks) clear(i int) { m[i>>6] &^= 1 << (i & 63) }

// word returns the i-th word of the marks with the bits outside [lo, hi)
// cleared. Sweeping a step's range word by word reads only the words that
// overlap it and visits only its set bits, however sparse they are.
func (m keepMarks) word(i, lo, hi int) uint64 {
	w := m[i]
	if base := i << 6; base < lo {
		w &= ^uint64(0) << (lo - base)
	}
	if end := (i + 1) << 6; end > hi {
		w &= ^uint64(0) >> (end - hi)
	}
	return w
}
