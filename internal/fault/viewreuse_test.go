package fault

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ocd/internal/core"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// viewCounter wraps a strategy and counts the steps it plans and the step
// views it is handed. A view reused from the previous step is the same
// pointer, so every pointer change is one view built.
type viewCounter struct {
	sim.Strategy
	last         *core.Instance
	steps, views *int
}

func (c *viewCounter) Plan(st *sim.State) []core.Move {
	*c.steps++
	if st.Inst != c.last {
		*c.views++
		c.last = st.Inst
	}
	return c.Strategy.Plan(st)
}

// Err forwards the wrapped strategy's failure, if it reports one.
func (c *viewCounter) Err() error {
	if f, ok := c.Strategy.(sim.Failer); ok {
		return f.Err()
	}
	return nil
}

// countViews runs inst under plan with the named chaos heuristic and
// returns the steps planned and the step views built.
func countViews(t *testing.T, inst *core.Instance, name string, plan Plan, seed int64) (steps, views int) {
	t.Helper()
	inner, retry := strings.CutPrefix(name, "retry-")
	f, ok := heuristics.Named(inner)
	if !ok {
		t.Fatalf("unknown heuristic %q", inner)
	}
	if retry {
		f = WithRetry(f, RetryOptions{})
	}
	counted := func(inst *core.Instance, rng *rand.Rand) (sim.Strategy, error) {
		s, err := f(inst, rng)
		if err != nil {
			return nil, err
		}
		return &viewCounter{Strategy: s, steps: &steps, views: &views}, nil
	}
	if _, err := Run(inst, counted, plan, sim.Options{Seed: seed, IdlePatience: 40}); err != nil && !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("%s: %v", name, err)
	}
	return steps, views
}

// TestStepViewReuse measures how often the fault engine hands the strategy
// the previous step's view on chaos-sweep cells (12 vertices, 8 tokens,
// vertex 0 protected), and checks that a fault-free run builds its view
// once. Under AtIntensity plans the capacities change only when a vertex
// crashes or recovers, so most steps reuse the last view; run with -v to
// see the share per intensity.
func TestStepViewReuse(t *testing.T) {
	names := []string{"local", "bandwidth", "retry-local"}
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		var steps, views int
		for s := int64(0); s < 16; s++ {
			g, err := topology.Random(12, topology.DefaultCaps, 1000+s)
			if err != nil {
				t.Fatal(err)
			}
			inst := workload.SingleFile(g, 8)
			for _, name := range names {
				st, v := countViews(t, inst, name, AtIntensity(x, 77+s, 0), 77+s)
				if x == 0 && v != 1 {
					t.Errorf("fault-free %s run on topology %d built %d views, want 1", name, s, v)
				}
				steps += st
				views += v
			}
		}
		t.Logf("intensity %.2f: %d steps, %d views built, %.1f%% of steps reuse the previous view",
			x, steps, views, 100*float64(steps-views)/float64(steps))
	}
}
