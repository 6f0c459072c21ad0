package main

import (
	"math/rand"
	"reflect"
	"testing"

	"ocd/internal/core"
	"ocd/internal/fault"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

func testInstance(t *testing.T) *core.Instance {
	t.Helper()
	g, err := topology.Random(24, topology.DefaultCaps, 5)
	if err != nil {
		t.Fatal(err)
	}
	return workload.SingleFile(g, 16)
}

// TestPlanTimerIdentity: wrapping a heuristic in the Plan timer changes
// nothing about the run, for all five heuristics.
func TestPlanTimerIdentity(t *testing.T) {
	inst := testInstance(t)
	for _, h := range heuristics.Names() {
		f, _ := heuristics.Named(h)
		want, err := sim.Run(inst, f, sim.Options{Seed: 7, Prune: true})
		if err != nil {
			t.Fatal(err)
		}
		ct := newTracer().cell(0)
		parent := -1
		var p plans
		got, err := sim.Run(inst, timePlans(f, ct, h, &parent, &p), sim.Options{Seed: 7, Prune: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wrapped run differs from the unwrapped run", h)
		}
		if p.calls != got.Steps || len(ct.spans) != got.Steps {
			t.Errorf("%s: %d Plan calls and %d spans for %d steps", h, p.calls, len(ct.spans), got.Steps)
		}
		if p.proposed != got.Moves+got.Rejected {
			t.Errorf("%s: proposed %d, engine saw %d", h, p.proposed, got.Moves+got.Rejected)
		}
	}
}

// TestPlanTimerRetryIdentity: retry-local under faults gives the same
// fault.Result whether the timer wraps the inner heuristic (as the chaos
// workload does) or the retry strategy itself, and the wrapper keeps
// sim.Failer visible to the engine exactly when the wrapped strategy has it.
func TestPlanTimerRetryIdentity(t *testing.T) {
	inst := testInstance(t)
	local, _ := heuristics.Named("local")
	for _, x := range []float64{0.5, 1} {
		run := func(f sim.Factory) *fault.Result {
			res, err := fault.Run(inst, f, fault.AtIntensity(x, 11, 0), sim.Options{Seed: 11, IdlePatience: 40})
			if err != nil && res == nil {
				t.Fatal(err)
			}
			return res
		}
		want := run(fault.WithRetry(local, fault.RetryOptions{}))
		parent := -1
		inner := timePlans(local, newTracer().cell(0), "local", &parent, &plans{})
		if got := run(fault.WithRetry(inner, fault.RetryOptions{})); !reflect.DeepEqual(got, want) {
			t.Errorf("x=%v: timing the inner heuristic changed the run", x)
		}
		outer := timePlans(fault.WithRetry(local, fault.RetryOptions{}), newTracer().cell(0), "local", &parent, &plans{})
		if got := run(outer); !reflect.DeepEqual(got, want) {
			t.Errorf("x=%v: timing the retry strategy changed the run", x)
		}
	}

	rng := rand.New(rand.NewSource(1))
	parent := -1
	outer := timePlans(fault.WithRetry(local, fault.RetryOptions{}), nil, "local", &parent, &plans{})
	s, err := outer(inst, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(sim.Failer); !ok {
		t.Error("wrapped retry strategy hides sim.Failer")
	}
	if s.Name() != "retry(local)" {
		t.Errorf("wrapped name %q, want retry(local)", s.Name())
	}
	plain := timePlans(local, nil, "local", &parent, &plans{})
	if s, _ := plain(inst, rng); s != nil {
		if _, ok := s.(sim.Failer); ok {
			t.Error("wrapped local strategy claims sim.Failer")
		}
	}
}
