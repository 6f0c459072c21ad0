package sim

import (
	"math/rand"
	"testing"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/tokenset"
)

// checkIndexes recounts the holder sets and have-counts from st.Possess
// and compares them with the state's incremental caches.
func checkIndexes(t *testing.T, st *State, when string) {
	t.Helper()
	holders, counts := st.Holders(), st.HaveCounts()
	if len(holders) != st.Inst.NumTokens {
		t.Fatalf("%s: %d holder sets for %d tokens", when, len(holders), st.Inst.NumTokens)
	}
	for tok := 0; tok < st.Inst.NumTokens; tok++ {
		want := tokenset.New(len(st.Possess))
		for v, p := range st.Possess {
			if p.Has(tok) {
				want.Add(v)
			}
		}
		if !holders[tok].Equal(want) {
			t.Fatalf("%s: Holders()[%d] = %v, recount %v", when, tok, holders[tok], want)
		}
		if counts[tok] != want.Count() {
			t.Fatalf("%s: HaveCounts()[%d] = %d, recount %d", when, tok, counts[tok], want.Count())
		}
	}
}

// randomDeliveries delivers k random moves, duplicates included.
func randomDeliveries(st *State, rng *rand.Rand, k int) {
	n := len(st.Possess)
	for i := 0; i < k; i++ {
		st.Deliver(core.Move{From: rng.Intn(n), To: rng.Intn(n), Token: rng.Intn(st.Inst.NumTokens)})
	}
}

func TestHoldersMatchRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// 130 vertices and 70 tokens span several words on both axes.
	const n, m = 130, 70
	inst := core.NewInstance(graph.New(n), m)
	for tok := 0; tok < m; tok++ {
		inst.Have[rng.Intn(n)].Add(tok)
	}
	st := &State{Inst: inst, Possess: inst.InitialPossession()}
	checkIndexes(t, st, "initial")
	for round := 0; round < 5; round++ {
		randomDeliveries(st, rng, 400)
		checkIndexes(t, st, "after Deliver")
	}

	// A fault-style state loss edits Possess directly: some vertices revert
	// to their have sets, some are wiped. InvalidateCounts drops both
	// caches and the next calls rebuild them.
	for v := 0; v < n; v += 3 {
		if v%2 == 0 {
			st.Possess[v].CopyFrom(inst.Have[v])
		} else {
			st.Possess[v].Clear()
		}
	}
	st.InvalidateCounts()
	checkIndexes(t, st, "after state loss")
	randomDeliveries(st, rng, 400)
	checkIndexes(t, st, "after state loss and Deliver")

	// Built lazily after deliveries it matches too.
	lazy := &State{Inst: inst, Possess: inst.InitialPossession()}
	randomDeliveries(lazy, rng, 300)
	checkIndexes(t, lazy, "lazy build")
}
