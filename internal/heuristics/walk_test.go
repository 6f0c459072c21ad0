package heuristics

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ocd/internal/core"
	"ocd/internal/tokenset"
)

// moduloRoundRobin is the modulo scan appendRoundRobin replaced: probe
// every token ID from the cursor round the circle once, sending the ones
// u has up to the capacity.
func moduloRoundRobin(moves []core.Move, have tokenset.Set, cur, capacity, m, u, to int) ([]core.Move, int) {
	next, sent := cur, 0
	for scanned := 0; scanned < m && sent < capacity; scanned++ {
		t := (cur + scanned) % m
		if !have.Has(t) {
			continue
		}
		moves = append(moves, core.Move{From: u, To: to, Token: t})
		sent++
		next = (t + 1) % m
	}
	return moves, next
}

func TestRoundRobinWalkMatchesModuloScan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, m := range []int{1, 2, 7, 63, 64, 65, 130} {
		for trial := 0; trial < 40; trial++ {
			have := tokenset.New(m)
			switch trial % 4 {
			case 0:
				have.Add(rng.Intn(m)) // a single token
			case 1:
				have.Fill()
			default:
				for tok := 0; tok < m; tok++ {
					if rng.Intn(3) == 0 {
						have.Add(tok)
					}
				}
			}
			if have.Empty() {
				have.Add(m - 1)
			}
			for _, cur := range []int{0, m / 2, m - 1, rng.Intn(m)} {
				for _, capacity := range []int{0, 1, 2, 5, m, m + 3} {
					want, wantNext := moduloRoundRobin(nil, have, cur, capacity, m, 3, 4)
					got, gotNext := appendRoundRobin(nil, have, cur, capacity, m, 3, 4)
					if !reflect.DeepEqual(got, want) || gotNext != wantNext {
						t.Fatalf("m=%d have=%v cur=%d cap=%d: walk sent %v next %d, modulo scan %v next %d",
							m, have, cur, capacity, got, gotNext, want, wantNext)
					}
				}
			}
		}
	}
}

func TestSortByCountMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sorter raritySorter
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(600)
		m := 1 + rng.Intn(300)
		counts := make([]int, m)
		for tok := range counts {
			switch trial % 3 {
			case 0: // the full range [0, n]
				counts[tok] = rng.Intn(n + 1)
			case 1: // a narrow band away from 0
				counts[tok] = n/2 + rng.Intn(3)
			default: // the extremes only
				counts[tok] = n * rng.Intn(2)
			}
		}
		tokens := rng.Perm(m)[:rng.Intn(m+1)]
		want := make([]int, len(tokens))
		copy(want, tokens)
		sort.SliceStable(want, func(i, j int) bool { return counts[want[i]] < counts[want[j]] })
		sorter.sortByCount(tokens, counts)
		if !reflect.DeepEqual(tokens, want) {
			t.Fatalf("trial %d: sortByCount = %v, sort.SliceStable = %v", trial, tokens, want)
		}
	}
}
