package ilp

import (
	"errors"
	"math/rand"
	"testing"

	"ocd/internal/core"
	"ocd/internal/exact"
	"ocd/internal/graph"
	"ocd/internal/workload"
)

func lineInstance(t *testing.T, n, m, c int) *core.Instance {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddArc(i, i+1, c); err != nil {
			t.Fatal(err)
		}
	}
	inst := core.NewInstance(g, m)
	inst.Have[0].AddRange(0, m)
	inst.Want[n-1].AddRange(0, m)
	return inst
}

func TestBuildDimensions(t *testing.T) {
	// The 3-line 0→1→2 (capacity 1), both tokens at vertex 0 and wanted at
	// vertex 2, τ=2. Earliest arrivals are e(0)=0, e(1)=1, e(2)=2 for both
	// tokens, and x^i on an arc leaving u survives only when e(u) ≤ i−1.
	inst := lineInstance(t, 3, 2, 1)
	prog, err := Build(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Real arcs: (0,1) at steps 1,2 and (1,2) at step 2 → (2+1)·2 = 6.
	// Self arcs: vertex 0 at steps 1..3, vertex 1 at 2..3, vertex 2 at 3
	// → (3+2+1)·2 = 12. Total 18.
	if got := prog.NumVariables(); got != 18 {
		t.Errorf("variables = %d, want 18", got)
	}
	// Possession rows exist for kept variables of steps ≥ 2: (0,1) step 2,
	// (1,2) step 2, self 0 steps 2,3, self 1 steps 2,3, self 2 step 3
	// → 7·2 = 14. Capacity rows bind where both tokens' variables survive
	// on a capacity-1 arc: (0,1) at steps 1 and 2, (1,2) at step 2 → 3.
	// The two final rows are lower bounds, not rows. Total 17.
	if got := prog.NumConstraints(); got != 17 {
		t.Errorf("constraints = %d, want 17", got)
	}
}

// TestReleaseRestoresBaseBounds checks that releasing a branching fixing
// returns a variable to its base bounds — [1, 1] for a final self-arc the
// presolve turned into a bound, not a hard-coded [0, 1] — and that a
// fixing outside the base bounds is refused.
func TestReleaseRestoresBaseBounds(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	prog, err := Build(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	free := prog.pos(0, 0, 1) // arc (0,1), the first in (From, To) order
	final := prog.pos(inst.G.NumArcs()+2, 0, 3)
	if free < 0 || final < 0 {
		t.Fatalf("variables missing: free %d, final %d", free, final)
	}
	s, err := newSolver(prog.prob, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := func(j int, lo, up float64) {
		t.Helper()
		if gotLo, gotUp := s.sv.Bounds(j); gotLo != lo || gotUp != up {
			t.Errorf("variable %d bounds [%v, %v], want [%v, %v]", j, gotLo, gotUp, lo, up)
		}
	}
	if err := s.applyFixings(map[int]int{free: 1, final: 1}); err != nil {
		t.Fatal(err)
	}
	want(free, 1, 1)
	want(final, 1, 1)
	if err := s.applyFixings(map[int]int{}); err != nil {
		t.Fatal(err)
	}
	want(free, 0, 1)
	want(final, 1, 1)
	if err := s.applyFixings(map[int]int{final: 0}); err == nil {
		t.Error("fixing a final variable to 0 below its base bound accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	if _, err := Build(inst, 0); err == nil {
		t.Error("tau=0 accepted")
	}
	bad := lineInstance(t, 3, 1, 1)
	bad.Have[0].Clear()
	if _, err := Build(bad, 2); err == nil {
		t.Error("inconsistent instance accepted")
	}
}

func TestSolveLineExact(t *testing.T) {
	// One token over 2 hops: 2 moves at tau=2.
	inst := lineInstance(t, 3, 1, 1)
	prog, err := Build(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched, obj, err := prog.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if obj != 2 {
		t.Errorf("objective = %d, want 2", obj)
	}
	if err := core.Validate(inst, sched); err != nil {
		t.Errorf("decoded schedule invalid: %v", err)
	}
}

func TestSolveInfeasibleHorizon(t *testing.T) {
	inst := lineInstance(t, 4, 1, 1) // needs 3 steps
	prog, err := Build(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prog.Solve(Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestSolveFigure1BothHorizons(t *testing.T) {
	inst := workload.Figure1()
	for _, tc := range []struct{ tau, wantBW int }{{2, 6}, {3, 4}, {4, 4}} {
		prog, err := Build(inst, tc.tau)
		if err != nil {
			t.Fatal(err)
		}
		sched, obj, err := prog.Solve(Options{})
		if err != nil {
			t.Fatalf("tau=%d: %v", tc.tau, err)
		}
		if obj != tc.wantBW {
			t.Errorf("tau=%d: objective = %d, want %d", tc.tau, obj, tc.wantBW)
		}
		if err := core.Validate(inst, sched); err != nil {
			t.Errorf("tau=%d: schedule invalid: %v", tc.tau, err)
		}
	}
}

func TestSolveAgreesWithBranchAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		n := 3 + rng.Intn(2)
		m := 1 + rng.Intn(2)
		g := graph.New(n)
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			if err := g.AddEdge(perm[i], perm[rng.Intn(i)], 1); err != nil {
				t.Fatal(err)
			}
		}
		inst := core.NewInstance(g, m)
		for tok := 0; tok < m; tok++ {
			inst.Have[rng.Intn(n)].Add(tok)
			inst.Want[rng.Intn(n)].Add(tok)
		}
		fast, err := exact.SolveFOCD(inst, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d focd: %v", trial, err)
		}
		tau := fast.Makespan() + 1
		if tau < 2 {
			tau = 2
		}
		bnb, err := exact.SolveEOCD(inst, tau, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d eocd: %v", trial, err)
		}
		prog, err := Build(inst, tau)
		if err != nil {
			t.Fatal(err)
		}
		_, obj, err := prog.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d ilp: %v", trial, err)
		}
		if obj != bnb.Moves() {
			t.Errorf("trial %d: ILP %d != branch-and-bound %d", trial, obj, bnb.Moves())
		}
	}
}

func TestSolveBudget(t *testing.T) {
	inst := workload.Figure1()
	prog, err := Build(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Budget 0 means default; budget must be enforced when tiny. The root
	// relaxation may already be integral, so allow either success or the
	// budget error — but never a wrong answer.
	sched, obj, err := prog.Solve(Options{MaxNodes: 1})
	if err != nil {
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if obj != 4 {
		t.Errorf("objective = %d, want 4", obj)
	}
	if err := core.Validate(inst, sched); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

// TestUnreachableSkipsLP: a wanted token that cannot reach its wanter
// within τ hops makes the program infeasible before any LP is solved.
func TestUnreachableSkipsLP(t *testing.T) {
	inst := lineInstance(t, 4, 1, 1) // the token needs 3 hops
	prog, err := Build(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, _, st, err := prog.SolveStats(Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if st.Nodes != 0 || st.SimplexIterations != 0 {
		t.Errorf("unreachable program solved LPs: %+v", st)
	}
}
