package ilp_test

import (
	"errors"
	"math"
	"testing"

	"ocd/internal/core"
	"ocd/internal/exact"
	"ocd/internal/experiments"
	"ocd/internal/ilp"
	"ocd/internal/lp"
)

// oracleNodes caps both branch-and-bound searches in the presolve oracle.
// A few horizons well above the FOCD optimum need thousands of nodes (the
// relaxation weakens as τ grows); those are compared at the LP level only.
const oracleNodes = 40

// oracle outcomes of one (instance, τ).
const (
	oracleInfeasible = iota
	oracleOptimal
	oracleBudget
)

// TestPresolveMatchesFullProgram checks the presolved program against the
// unpresolved §3.4 program (BuildFull) on random tiny instances, at
// horizons from one below the FOCD optimum to two above it: root-LP
// status and objective, ILP feasibility and optimum agree; every variable
// the presolve drops is 0 in the full program's LP and ILP solutions; and
// branch-and-bound keeps every variable inside its base bounds (SolveStats
// fails on a fixing outside them; TestReleaseRestoresBaseBounds checks the
// release side).
func TestPresolveMatchesFullProgram(t *testing.T) {
	lastSeed := int64(10)
	if testing.Short() {
		lastSeed = 3
	}
	shapes := []struct{ n, m int }{{4, 2}, {5, 2}, {6, 3}}
	var outcomes [3]int
	for seed := int64(3); seed <= lastSeed; seed++ {
		for _, sh := range shapes {
			for i, inst := range experiments.RandomTinyInstances(seed, 4, sh.n, sh.m) {
				fast, err := exact.SolveFOCD(inst, exact.Options{})
				if err != nil {
					t.Fatalf("seed %d n=%d inst %d: focd: %v", seed, sh.n, i, err)
				}
				for tau := fast.Makespan() - 1; tau <= fast.Makespan()+2; tau++ {
					if tau >= 1 {
						outcomes[checkPresolve(t, inst, tau)]++
					}
				}
			}
		}
	}
	t.Logf("horizons: %d infeasible, %d optimal, %d over the %d-node budget (LP level only)",
		outcomes[oracleInfeasible], outcomes[oracleOptimal], outcomes[oracleBudget], oracleNodes)
	if outcomes[oracleInfeasible] == 0 || outcomes[oracleOptimal] == 0 {
		t.Error("the oracle must see both infeasible and optimal horizons")
	}
	if total := outcomes[0] + outcomes[1] + outcomes[2]; outcomes[oracleBudget]*5 > total {
		t.Errorf("%d of %d horizons exceeded the node budget: the ILP comparison covers too little",
			outcomes[oracleBudget], total)
	}
}

// checkPresolve compares one (instance, τ) and reports the outcome.
func checkPresolve(t *testing.T, inst *core.Instance, tau int) int {
	t.Helper()
	prog, err := ilp.Build(inst, tau)
	if err != nil {
		t.Fatalf("tau=%d: build: %v", tau, err)
	}
	full, vars := ilp.BuildFull(inst, tau)
	dropped := func(j int) bool { return prog.Index(vars[j]) < 0 }

	// Root LP.
	fullLP, err := lp.Solve(full)
	if err != nil {
		t.Fatalf("tau=%d: full lp: %v", tau, err)
	}
	if prog.Unreachable() {
		if fullLP.Status != lp.Infeasible {
			t.Fatalf("tau=%d: presolve proved infeasibility, full LP is %v", tau, fullLP.Status)
		}
	} else {
		preLP, err := lp.Solve(prog.LP())
		if err != nil {
			t.Fatalf("tau=%d: presolved lp: %v", tau, err)
		}
		if preLP.Status != fullLP.Status {
			t.Fatalf("tau=%d: root LP status %v, full program %v", tau, preLP.Status, fullLP.Status)
		}
		if preLP.Status == lp.Optimal && math.Abs(preLP.Objective-fullLP.Objective) > 1e-6 {
			t.Errorf("tau=%d: root LP objective %v, full program %v", tau, preLP.Objective, fullLP.Objective)
		}
	}
	if fullLP.Status == lp.Optimal {
		for j, x := range fullLP.X {
			if dropped(j) && x > 1e-9 {
				t.Errorf("tau=%d: dropped %+v is %v in the full LP solution", tau, vars[j], x)
			}
		}
	}

	// ILP.
	opts := ilp.Options{MaxNodes: oracleNodes}
	lb := float64(core.BandwidthLowerBound(inst, nil))
	fullX, fullObj, fullErr := ilp.BranchAndBound(full, lb, opts)
	sched, obj, _, err := prog.SolveStats(opts)
	for _, e := range []error{fullErr, err} {
		if e != nil && !errors.Is(e, ilp.ErrBudget) && !errors.Is(e, ilp.ErrInfeasible) {
			t.Fatalf("tau=%d: branch-and-bound: %v", tau, e)
		}
	}
	if errors.Is(fullErr, ilp.ErrBudget) || errors.Is(err, ilp.ErrBudget) {
		return oracleBudget
	}
	if fullX == nil {
		if !errors.Is(err, ilp.ErrInfeasible) {
			t.Fatalf("tau=%d: full program infeasible, presolved returns %v", tau, err)
		}
		return oracleInfeasible
	}
	if err != nil {
		t.Fatalf("tau=%d: full optimum %v, presolved returns %v", tau, fullObj, err)
	}
	if obj != int(math.Round(fullObj)) {
		t.Errorf("tau=%d: ILP optimum %d, full program %v", tau, obj, fullObj)
	}
	if err := core.Validate(inst, sched); err != nil {
		t.Errorf("tau=%d: presolved schedule invalid: %v", tau, err)
	}
	if sched.Makespan() > tau || sched.Moves() != obj {
		t.Errorf("tau=%d: schedule of %d steps and %d moves for optimum %d", tau, sched.Makespan(), sched.Moves(), obj)
	}
	for j, x := range fullX {
		if dropped(j) && x > 1e-9 {
			t.Errorf("tau=%d: dropped %+v is %v in the full ILP solution", tau, vars[j], x)
		}
	}
	return oracleOptimal
}
