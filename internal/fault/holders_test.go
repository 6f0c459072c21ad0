package fault

import (
	"errors"
	"math/rand"
	"testing"

	"ocd/internal/core"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// holderCheck wraps a strategy and, at every Plan, compares the state's
// holder index with a recount of the possession the engine maintains.
type holderCheck struct {
	sim.Strategy
	t      *testing.T
	checks int
}

func (h *holderCheck) Plan(st *sim.State) []core.Move {
	holders := st.Holders()
	for tok, set := range holders {
		for v, p := range st.Possess {
			if set.Has(v) != p.Has(tok) {
				h.t.Fatalf("step %d: Holders()[%d].Has(%d) = %v, possession says %v",
					st.Step, tok, v, set.Has(v), p.Has(tok))
			}
		}
	}
	h.checks++
	return h.Strategy.Plan(st)
}

// TestHoldersSurviveStateLoss runs the fault engine with crash state loss
// (downloads reverted, or everything wiped) and checks the holder index
// against the possession at every step.
func TestHoldersSurviveStateLoss(t *testing.T) {
	g, err := topology.Random(20, topology.DefaultCaps, 4)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 12)
	for _, loss := range []StateLoss{DropDownloads, DropAll} {
		for _, name := range []string{"bandwidth", "local"} {
			inner, _ := heuristics.Named(name)
			var hc *holderCheck
			f := func(inst *core.Instance, rng *rand.Rand) (sim.Strategy, error) {
				s, err := inner(inst, rng)
				hc = &holderCheck{Strategy: s, t: t}
				return hc, err
			}
			plan := AtIntensity(1, 21, 0)
			plan.StateLoss = loss
			res, err := Run(inst, f, plan, sim.Options{Seed: 5, IdlePatience: 40})
			if err != nil && !errors.Is(err, sim.ErrStalled) {
				t.Fatal(err)
			}
			if res.WastedMoves == 0 {
				t.Errorf("%v/%s: no crash destroyed a delivery; the state-loss path went unexercised", loss, name)
			}
			t.Logf("%v/%s: %d steps checked, %d wasted moves", loss, name, hc.checks, res.WastedMoves)
		}
	}
}
