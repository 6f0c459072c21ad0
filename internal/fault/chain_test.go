package fault

import (
	"math/rand"
	"testing"
)

// refChain is the straightforward memo the bit-packed chain must match:
// one bool per step, extended on demand.
type refChain struct {
	seed     int64
	p01, p10 float64
	states   map[[2]int][]bool
}

func (c *refChain) state(step, a, b int) bool {
	if step < 0 {
		return false
	}
	key := [2]int{a, b}
	s := c.states[key]
	if s == nil {
		s = []bool{false}
	}
	for len(s) <= step {
		t := len(s) - 1
		if s[t] {
			s = append(s, frac(mix(c.seed, t, a, b, 1)) >= c.p10)
		} else {
			s = append(s, frac(mix(c.seed, t, a, b, 0)) < c.p01)
		}
	}
	c.states[key] = s
	return s[step]
}

func TestChainMatchesBoolMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		seed := rng.Int63()
		p01, p10 := rng.Float64()*0.3, rng.Float64()
		c := newChain(seed, p01, p10)
		ref := &refChain{seed: seed, p01: p01, p10: p10, states: make(map[[2]int][]bool)}
		// Queries jump forwards and backwards across word boundaries.
		for q := 0; q < 300; q++ {
			step, a, b := rng.Intn(400)-2, rng.Intn(4), rng.Intn(3)-2
			if got, want := c.state(step, a, b), ref.state(step, a, b); got != want {
				t.Fatalf("trial %d: state(%d, %d, %d) = %v, want %v", trial, step, a, b, got, want)
			}
		}
	}
}
