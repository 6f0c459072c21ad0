// Package ilp builds and solves the paper's §3.4 time-indexed integer
// program for the Efficient Overlay Content Distribution problem.
//
// For a horizon τ, a 0/1 variable x^i_{(u,v),t} says token t crosses arc
// (u,v) at timestep i. The graph is extended with a self-arc at every
// vertex (storage); self-arcs carry no cost and no capacity. Constraints:
//
//	possession:  x^i_{(u,v),t} ≤ Σ_{w:(w,u)∈E'} x^{i−1}_{(w,u),t}
//	capacity:    Σ_t x^i_{(u,v),t} ≤ c(u,v)      (real arcs only)
//	final:       x^{τ+1}_{(v,v),t} ≥ w_{vt}
//
// with initial conditions x^0_{(v,v),t} = [t ∈ h(v)] folded into the i = 1
// possession rows. The x ≤ 1 bounds are NOT constraint rows: they ride as
// implicit variable bounds of the bounded-variable simplex in internal/lp,
// which removes T·|A| dense rows from every relaxation.
//
// Build presolves the program before any LP sees it (see Build): it drops
// the variables of tokens that cannot have reached the sender yet, the
// step-1 possession rows, and the capacity rows that cannot bind, and
// turns the final rows into lower bounds. The LP relaxation's feasible set
// is unchanged once the dropped variables are projected out, so every
// optimum is the full program's.
//
// The objective minimizes the number of real-arc moves. Solving is
// warm-started branch-and-bound: nodes are ordered best-bound-first, each
// node re-solves its LP by dual simplex from the parent's optimal basis
// (a Basis snapshot, not a phase-1 from scratch), branching fixes a
// variable by tightening its bounds in place, and the incumbent is pruned
// against the §5.1 bandwidth lower bound from internal/core — once the
// incumbent meets that certified bound the search stops early.
package ilp

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/lp"
)

// ErrInfeasible is returned when no schedule of length τ exists.
var ErrInfeasible = errors.New("ilp: infeasible within horizon")

// ErrBudget is returned when branch-and-bound exceeds its node budget.
var ErrBudget = errors.New("ilp: node budget exhausted")

// Options controls the solver.
type Options struct {
	// MaxNodes caps branch-and-bound nodes (0 = 10000).
	MaxNodes int
}

func (o Options) nodes() int {
	if o.MaxNodes <= 0 {
		return 10000
	}
	return o.MaxNodes
}

// Stats reports the work a Solve performed; it feeds the ocdbench solver
// section and the perf-regression gate.
type Stats struct {
	// Nodes is the number of LP relaxations solved (the root plus every
	// expanded branch-and-bound node; nodes pruned by bound before their
	// LP is touched are free and not counted).
	Nodes int
	// SimplexIterations is the total pivot count across all relaxations
	// (primal, dual, and bound flips).
	SimplexIterations int
	// WarmStarts counts node LPs re-solved from a restored parent basis
	// (every node except the root).
	WarmStarts int
	// BoundFlips is the subset of SimplexIterations where the entering
	// variable reached its other bound without a basis change — the
	// bounded-variable simplex's cheap pivot.
	BoundFlips int
	// DualRestorations counts dual-simplex warm-start restorations
	// (Resolve calls on the shared solver).
	DualRestorations int
}

// Program is the presolved integer program plus its decoding layout.
//
// Variables are laid out slot-major: slot s < |A| is the s-th real arc in
// (From, To) order, slot |A|+v is v's self-arc. For one (slot, token) the
// steps the presolve keeps form a single run first..last (last is τ on a
// real arc, τ+1 on a self-arc), stored contiguously, so a variable's
// position is base + (i − first) and no index map is needed.
type Program struct {
	inst *core.Instance
	tau  int
	// ends holds the real arcs by slot.
	ends []graph.Arc
	// first and base are indexed slot·m + token: the earliest kept step
	// and the position of its variable. first > last marks an empty run.
	first []int32
	base  []int32
	prob  *lp.Problem
	// unreachable is set when some wanted token cannot reach its wanter
	// within τ steps; the program is then infeasible without an LP.
	unreachable bool
}

// Build constructs the presolved time-indexed program for the given
// horizon. The presolve is exact: every point it removes is 0 in every
// feasible solution of the LP relaxation, so the relaxation's optimum,
// and the integer optimum, are those of the full §3.4 program.
//
//   - With e_t(u) the BFS hop distance from h(t) to u, token t cannot be
//     at u before step e_t(u)+1, so x^i_{(u,v),t} (and the self-arc
//     x^i_{(u,u),t}) is kept only when e_t(u) ≤ i−1. By induction over the
//     possession rows every other variable is 0, LP relaxation included.
//   - The step-1 possession rows are dropped: on the kept variables
//     (t ∈ h(u)) each one restates x ≤ 1.
//   - The final rows x^{τ+1}_{(v,v),t} ≥ 1 become lower bounds; a wanted
//     (v,t) with e_t(v) > τ marks the program infeasible.
//   - A capacity row is kept only when more kept token variables share
//     the (arc, step) than the arc's capacity; otherwise x ≤ 1 implies it.
func Build(inst *core.Instance, tau int) (*Program, error) {
	if err := inst.Check(); err != nil {
		return nil, err
	}
	if tau < 1 {
		return nil, fmt.Errorf("ilp: horizon %d must be >= 1", tau)
	}
	g := inst.G
	n, m, na := inst.N(), inst.NumTokens, g.NumArcs()
	p := &Program{inst: inst, tau: tau, ends: g.Arcs()}
	slotOf := make([]int32, na) // arc ID → slot
	for k, a := range p.ends {
		slotOf[g.ArcID(a.From, a.To)] = int32(k)
	}

	// Layout: the kept step run of every (slot, token), and the row count.
	dist := earliestArrival(inst)
	slots := na + n
	layout := make([]int32, 2*slots*m)
	p.first, p.base = layout[:slots*m:slots*m], layout[slots*m:]
	nv, rows := 0, 0
	for s := 0; s < slots; s++ {
		u, last := p.tail(s), p.last(s)
		for t := 0; t < m; t++ {
			f := last + 1
			if e := dist[t*n+u]; e >= 0 && int(e) < last {
				f = int(e) + 1
			}
			p.first[s*m+t], p.base[s*m+t] = int32(f), int32(nv)
			if f <= last {
				nv += last - f + 1
				rows += last - max(f, 2) + 1 // possession rows of steps ≥ 2
			}
		}
	}
	for s := 0; s < na; s++ {
		for i := 1; i <= tau; i++ {
			if p.kept(s, i) > p.ends[s].Cap {
				rows++
			}
		}
	}

	bounds := make([]float64, 3*nv)
	prob := &lp.Problem{
		C:  bounds[:nv:nv],
		Lo: bounds[nv : 2*nv : 2*nv],
		Up: bounds[2*nv:],
		A:  make([][]float64, rows),
		B:  make([]float64, rows),
	}
	slab := make([]float64, rows*nv)
	r := 0
	next := func(rhs float64) []float64 {
		row := slab[r*nv : (r+1)*nv : (r+1)*nv]
		prob.A[r], prob.B[r] = row, rhs
		r++
		return row
	}

	// Possession rows: x^i_{(u,v),t} − Σ_{w:(w,u)∈E'} x^{i−1}_{(w,u),t} ≤ 0
	// for i ≥ 2, over the kept variables only.
	for s := 0; s < slots; s++ {
		u, last := p.tail(s), p.last(s)
		for t := 0; t < m; t++ {
			f, b := int(p.first[s*m+t]), int(p.base[s*m+t])
			for i := f; i <= last; i++ {
				j := b + i - f
				if s < na {
					prob.C[j] = 1
				}
				prob.Up[j] = 1 // binary relaxation: x ∈ [0, 1] as implicit bounds
				if i == 1 {
					continue
				}
				row := next(0)
				row[j] = 1
				for _, id := range g.InArcIDs(u) {
					if q := p.pos(int(slotOf[id]), t, i-1); q >= 0 {
						row[q] = -1
					}
				}
				if q := p.pos(na+u, t, i-1); q >= 0 {
					row[q] = -1
				}
			}
		}
	}

	// Capacity rows: real arcs only, and only where they can bind.
	for s := 0; s < na; s++ {
		for i := 1; i <= tau; i++ {
			if p.kept(s, i) <= p.ends[s].Cap {
				continue
			}
			row := next(float64(p.ends[s].Cap))
			for t := 0; t < m; t++ {
				if q := p.pos(s, t, i); q >= 0 {
					row[q] = 1
				}
			}
		}
	}

	// Final rows as bounds: x^{τ+1}_{(v,v),t} ≥ w_{vt}.
	for v := 0; v < n; v++ {
		for t := 0; t < m; t++ {
			if !inst.Want[v].Has(t) {
				continue
			}
			if j := p.pos(na+v, t, tau+1); j >= 0 {
				prob.Lo[j] = 1
			} else {
				p.unreachable = true
			}
		}
	}

	p.prob = prob
	return p, nil
}

// earliestArrival returns e[t·n+v], the BFS hop distance from token t's
// initial holders h(t) to v, or −1 when no holder reaches v.
func earliestArrival(inst *core.Instance) []int32 {
	g := inst.G
	n, m := inst.N(), inst.NumTokens
	dist := make([]int32, m*n+n)
	queue := dist[m*n:]
	for t := 0; t < m; t++ {
		d := dist[t*n : (t+1)*n]
		queue = queue[:0]
		for v := 0; v < n; v++ {
			d[v] = -1
			if inst.Have[v].Has(t) {
				d[v] = 0
				queue = append(queue, int32(v))
			}
		}
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			for _, a := range g.Out(int(u)) {
				if d[a.To] < 0 {
					d[a.To] = d[u] + 1
					queue = append(queue, int32(a.To))
				}
			}
		}
	}
	return dist[:m*n]
}

// tail returns the vertex a slot's arc leaves from.
func (p *Program) tail(slot int) int {
	if slot < len(p.ends) {
		return p.ends[slot].From
	}
	return slot - len(p.ends)
}

// last returns a slot's final step: τ on a real arc, τ+1 on a self-arc.
func (p *Program) last(slot int) int {
	if slot < len(p.ends) {
		return p.tau
	}
	return p.tau + 1
}

// pos returns the position of x^i on slot for token t, or −1 when the
// presolve dropped that variable.
func (p *Program) pos(slot, t, i int) int {
	k := slot*p.inst.NumTokens + t
	f := int(p.first[k])
	if i < f || i > p.last(slot) {
		return -1
	}
	return int(p.base[k]) + i - f
}

// kept counts the token variables the presolve keeps on a real arc's slot
// at step i.
func (p *Program) kept(slot, i int) int {
	c := 0
	for _, f := range p.first[slot*p.inst.NumTokens : (slot+1)*p.inst.NumTokens] {
		if int(f) <= i {
			c++
		}
	}
	return c
}

// NumVariables returns the number of 0/1 variables in the presolved
// program: the ones the earliest-arrival reduction keeps.
func (p *Program) NumVariables() int { return len(p.prob.C) }

// NumConstraints returns the number of inequality rows in the presolved
// program: possession rows of steps ≥ 2 and the capacity rows that can
// bind. The x ≤ 1 bounds and the final x ≥ 1 rows are variable bounds
// of the simplex and add no rows.
func (p *Program) NumConstraints() int { return len(p.prob.A) }

// Solve runs branch-and-bound on the LP relaxation and returns a schedule
// of length ≤ τ with the minimum number of moves, along with that optimum.
func (p *Program) Solve(opts Options) (*core.Schedule, int, error) {
	sched, obj, _, err := p.SolveStats(opts)
	return sched, obj, err
}

// SolveStats is Solve plus solver work counters. A program the presolve
// already proved infeasible returns ErrInfeasible without an LP solve.
func (p *Program) SolveStats(opts Options) (*core.Schedule, int, Stats, error) {
	if p.unreachable {
		return nil, 0, Stats{}, ErrInfeasible
	}
	// The §5.1 bandwidth bound certifies optimality early: no schedule
	// can use fewer moves, so an incumbent that reaches it ends the
	// search without draining the node queue.
	s, err := newSolver(p.prob, float64(core.BandwidthLowerBound(p.inst, nil)), opts)
	if err != nil {
		return nil, 0, Stats{}, err
	}
	if err := s.run(); err != nil {
		return nil, 0, s.stats(), err
	}
	if s.bestX == nil {
		return nil, 0, s.stats(), ErrInfeasible
	}
	sched := p.decode(s.bestX)
	return sched, int(math.Round(s.bestObj)), s.stats(), nil
}

const (
	// intTol is the integrality tolerance.
	intTol = 1e-6
	// tieTol is the width within which two fractionalities tie.
	tieTol = 1e-9
)

type solver struct {
	sv *lp.Solver
	// lo and up are every variable's base bounds, the ones a released
	// branching fixing returns to.
	lo, up   []float64
	budget   int
	nodes    int
	warm     int
	bestObj  float64
	bestX    []float64
	globalLB float64
	cur      map[int]int // fixings currently installed in sv
	queue    nodeQueue
	seq      int
}

// newSolver sets up branch-and-bound over prob, whose variables must all
// be integral in a solution and whose Lo and Up are both set; globalLB is
// a certified lower bound on the optimum.
func newSolver(prob *lp.Problem, globalLB float64, opts Options) (*solver, error) {
	sv, err := lp.NewSolver(prob)
	if err != nil {
		return nil, fmt.Errorf("ilp: lp relaxation: %w", err)
	}
	s := &solver{
		sv:       sv,
		lo:       prob.Lo,
		up:       prob.Up,
		budget:   opts.nodes(),
		bestObj:  math.Inf(1),
		cur:      map[int]int{},
		globalLB: globalLB,
	}
	return s, nil
}

func (s *solver) stats() Stats {
	st := s.sv.Stats()
	return Stats{
		Nodes:             s.nodes,
		SimplexIterations: st.Iterations,
		WarmStarts:        s.warm,
		BoundFlips:        st.BoundFlips,
		DualRestorations:  st.DualRestorations,
	}
}

// bbNode is one open branch-and-bound subproblem: the branching decision
// it adds (fixVar = fixVal) on top of its parent's, and the parent's
// optimal basis to warm-start from. Fixings are reconstructed by walking
// the parent chain; sibling nodes share the same Basis snapshot.
type bbNode struct {
	bound  float64 // parent LP objective: a lower bound for the subtree
	depth  int
	seq    int
	fixVar int
	fixVal int
	parent *bbNode
	basis  lp.Basis
}

// nodeQueue pops the node with the least lower bound (best-bound-first);
// ties prefer the deeper node (diving finds incumbents sooner) and then
// insertion order, which keeps the search deterministic.
type nodeQueue []*bbNode

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	if q[i].depth != q[j].depth {
		return q[i].depth > q[j].depth
	}
	return q[i].seq < q[j].seq
}
func (q nodeQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x any)   { *q = append(*q, x.(*bbNode)) }
func (q *nodeQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return x
}

func (s *solver) run() error {
	// Root: a cold solve (the only one), counted like any other node.
	s.nodes++
	sol, err := s.sv.Solve()
	if err != nil {
		return fmt.Errorf("ilp: lp relaxation: %w", err)
	}
	if sol.Status == lp.Optimal {
		s.expand(sol, nil, 0)
	}

	for s.queue.Len() > 0 {
		if s.bestObj <= s.globalLB+intTol {
			break // incumbent meets the certified lower bound
		}
		node := heap.Pop(&s.queue).(*bbNode)
		// The bound was computed at push time; the incumbent may have
		// improved since, making the node prunable without an LP solve.
		if math.Ceil(node.bound-intTol) >= s.bestObj {
			continue
		}
		s.nodes++
		if s.nodes > s.budget {
			return ErrBudget
		}
		if err := s.sv.Restore(node.basis); err != nil {
			return fmt.Errorf("ilp: warm start: %w", err)
		}
		if err := s.applyFixings(node.fixings()); err != nil {
			return fmt.Errorf("ilp: warm start: %w", err)
		}
		s.warm++
		sol, err := s.sv.Resolve()
		if err != nil {
			return fmt.Errorf("ilp: lp relaxation: %w", err)
		}
		if sol.Status != lp.Optimal {
			continue // infeasible subproblem (unbounded cannot occur: c ≥ 0, x bounded)
		}
		s.expand(sol, node, node.depth)
	}
	return nil
}

// expand prunes, records an integral incumbent, or branches on the most
// fractional variable, pushing both children with the node's optimal
// basis as their warm start.
func (s *solver) expand(sol *lp.Solution, parent *bbNode, depth int) {
	// Integral objective: the bound can be rounded up before comparing.
	if math.Ceil(sol.Objective-intTol) >= s.bestObj {
		return
	}
	// Branch on the most fractional variable. Fractionalities within
	// tieTol of each other tie, and a tie goes to the smallest index, so
	// rounding dust left by the pivot trail does not pick the variable.
	frac := -1
	fracDist := 0.0
	for j, x := range sol.X {
		if d := math.Abs(x - math.Round(x)); d > intTol && d > fracDist+tieTol {
			frac = j
			fracDist = d
		}
	}
	if frac == -1 {
		s.bestObj = math.Round(sol.Objective)
		s.bestX = append(s.bestX[:0], sol.X...)
		return
	}
	basis := s.sv.Snapshot()
	for _, val := range []int{1, 0} { // the val=1 dive gets the earlier seq
		heap.Push(&s.queue, &bbNode{
			bound: sol.Objective, depth: depth + 1, seq: s.seq,
			fixVar: frac, fixVal: val, parent: parent, basis: basis,
		})
		s.seq++
	}
}

// fixings reconstructs the node's full fixing set from the parent chain.
func (n *bbNode) fixings() map[int]int {
	out := make(map[int]int, n.depth)
	for cur := n; cur != nil; cur = cur.parent {
		out[cur.fixVar] = cur.fixVal
	}
	return out
}

// applyFixings reconciles the solver's variable bounds with the target
// fixing set: released variables go back to their base bounds, new or
// changed fixings pin [v, v]. A fixing outside a variable's base bounds
// is an error: branching may only narrow the presolved program. Each
// SetBounds shifts values independently, so the outcome is order-free;
// the sort just keeps the pivot trail replayable.
func (s *solver) applyFixings(target map[int]int) error {
	changed := make([]int, 0, len(s.cur)+len(target))
	for j := range s.cur {
		if _, ok := target[j]; !ok {
			changed = append(changed, j)
		}
	}
	sort.Ints(changed)
	for _, j := range changed {
		if err := s.sv.SetBounds(j, s.lo[j], s.up[j]); err != nil {
			return err
		}
	}
	changed = changed[:0]
	for j, v := range target {
		if cv, ok := s.cur[j]; !ok || cv != v {
			changed = append(changed, j)
		}
	}
	sort.Ints(changed)
	for _, j := range changed {
		v := float64(target[j])
		if v < s.lo[j] || v > s.up[j] {
			return fmt.Errorf("ilp: branching fixes variable %d to %v outside its base bounds [%v, %v]",
				j, v, s.lo[j], s.up[j])
		}
		if err := s.sv.SetBounds(j, v, v); err != nil {
			return err
		}
	}
	s.cur = target
	return nil
}

// decode converts an integral solution into a schedule, dropping self-arc
// storage pseudo-moves.
func (p *Program) decode(x []float64) *core.Schedule {
	sched := &core.Schedule{Steps: make([]core.Step, p.tau)}
	m := p.inst.NumTokens
	for s, a := range p.ends {
		for t := 0; t < m; t++ {
			f, b := int(p.first[s*m+t]), int(p.base[s*m+t])
			for i := f; i <= p.tau; i++ {
				if x[b+i-f] >= 0.5 {
					sched.Steps[i-1] = append(sched.Steps[i-1], core.Move{From: a.From, To: a.To, Token: t})
				}
			}
		}
	}
	// Drop empty trailing steps.
	for len(sched.Steps) > 0 && len(sched.Steps[len(sched.Steps)-1]) == 0 {
		sched.Steps = sched.Steps[:len(sched.Steps)-1]
	}
	return sched
}
