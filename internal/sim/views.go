package sim

import (
	"slices"

	"ocd/internal/core"
	"ocd/internal/graph"
)

// StepViews builds the per-step instance views that capacity models hand
// the kernel: the base instance restricted to its positive-capacity arcs.
// The dynamic and fault engines share it, so both produce views whose arc
// IDs and Out/In order are those of adding the surviving arcs to an empty
// graph in (From, To) order.
//
// A view is immutable, so when a step's effective capacities equal the
// previous step's, View hands back the previous view instead of building
// an identical one. Under fault.AtIntensity plans the capacities change
// only when a vertex crashes or recovers, and on chaos-sweep cells half
// (intensity 1) to two thirds (intensity 0) of the steps reuse the
// previous view; fault.TestStepViewReuse measures it.
type StepViews struct {
	inst  *core.Instance
	arcs  []graph.Arc // base arcs, sorted by (From, To)
	ids   []int       // base arc ID per arcs[i]
	capAt func(step int, a graph.Arc) int
	view  *core.Instance
	// caps holds this step's capacity per arcs[i]; prev the last built
	// view's. Both are run scratch, swapped when a new view is built.
	//ocd:scratch
	caps []int
	//ocd:scratch
	prev []int
}

// NewStepViews prepares the views of inst under capAt, which gives arc a's
// effective capacity at step (a non-positive value removes the arc).
func NewStepViews(inst *core.Instance, capAt func(step int, a graph.Arc) int) *StepViews {
	arcs := inst.G.Arcs()
	ids := make([]int, len(arcs))
	for i, a := range arcs {
		ids[i] = inst.G.ArcID(a.From, a.To)
	}
	return &StepViews{
		inst:  inst,
		arcs:  arcs,
		ids:   ids,
		capAt: capAt,
		caps:  make([]int, len(arcs)),
		prev:  make([]int, len(arcs)),
	}
}

// Arcs returns the base arcs in (From, To) order. The slice must not be
// modified.
func (v *StepViews) Arcs() []graph.Arc { return v.arcs }

// View evaluates every base arc's capacity at step, writes it into eff
// (indexed by base arc ID, clamped at 0) and returns the instance view the
// strategy plans against.
func (v *StepViews) View(step int, eff []int) *core.Instance {
	for i, a := range v.arcs {
		c := v.capAt(step, a)
		if c < 0 {
			c = 0
		}
		v.caps[i] = c
		eff[v.ids[i]] = c
	}
	if v.view != nil && slices.Equal(v.caps, v.prev) {
		return v.view
	}
	g := graph.Subgraph(v.inst.N(), v.arcs, v.caps)
	v.view = &core.Instance{G: g, NumTokens: v.inst.NumTokens, Have: v.inst.Have, Want: v.inst.Want}
	v.caps, v.prev = v.prev, v.caps
	return v.view
}
