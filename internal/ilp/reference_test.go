package ilp

import (
	"sort"

	"ocd/internal/core"
	"ocd/internal/lp"
)

// FullVar identifies one x^i_{(u,v),t} of the unpresolved program.
type FullVar struct {
	From, To int // From == To means self-arc
	Token    int
	Step     int // 1-based
}

// BuildFull is Build as it stood before the presolve, kept as the oracle
// the presolve is checked against: every variable of the §3.4 program
// (real arcs at steps 1..τ, self-arcs at 1..τ+1), one possession row per
// variable, one capacity row per (arc, step) and one row per final
// condition, with x ≤ 1 as implicit bounds.
func BuildFull(inst *core.Instance, tau int) (*lp.Problem, []FullVar) {
	n, m := inst.N(), inst.NumTokens
	arcs := inst.G.Arcs()
	var vars []FullVar
	index := make(map[FullVar]int)
	add := func(v FullVar) {
		index[v] = len(vars)
		vars = append(vars, v)
	}
	for _, a := range arcs {
		for t := 0; t < m; t++ {
			for i := 1; i <= tau; i++ {
				add(FullVar{From: a.From, To: a.To, Token: t, Step: i})
			}
		}
	}
	for v := 0; v < n; v++ {
		for t := 0; t < m; t++ {
			for i := 1; i <= tau+1; i++ {
				add(FullVar{From: v, To: v, Token: t, Step: i})
			}
		}
	}

	nv := len(vars)
	prob := &lp.Problem{C: make([]float64, nv), Lo: make([]float64, nv), Up: make([]float64, nv)}
	for idx, v := range vars {
		if v.From != v.To {
			prob.C[idx] = 1
		}
		prob.Up[idx] = 1
	}
	addRow := func(row []float64, rhs float64) {
		prob.A = append(prob.A, row)
		prob.B = append(prob.B, rhs)
	}
	for idx, v := range vars {
		row := make([]float64, nv)
		row[idx] = 1
		rhs := 0.0
		if v.Step == 1 {
			if inst.Have[v.From].Has(v.Token) {
				rhs = 1
			}
		} else {
			prev := v.Step - 1
			if prev <= tau {
				for _, a := range inst.G.In(v.From) {
					row[index[FullVar{From: a.From, To: a.To, Token: v.Token, Step: prev}]] -= 1
				}
			}
			row[index[FullVar{From: v.From, To: v.From, Token: v.Token, Step: prev}]] -= 1
		}
		addRow(row, rhs)
	}
	for _, a := range arcs {
		for i := 1; i <= tau; i++ {
			row := make([]float64, nv)
			for t := 0; t < m; t++ {
				row[index[FullVar{From: a.From, To: a.To, Token: t, Step: i}]] = 1
			}
			addRow(row, float64(a.Cap))
		}
	}
	for v := 0; v < n; v++ {
		for t := 0; t < m; t++ {
			if !inst.Want[v].Has(t) {
				continue
			}
			row := make([]float64, nv)
			row[index[FullVar{From: v, To: v, Token: t, Step: tau + 1}]] = -1
			addRow(row, -1)
		}
	}
	return prob, vars
}

// Index returns the presolved position of a variable, or −1 when the
// presolve dropped it.
func (p *Program) Index(v FullVar) int {
	slot := len(p.ends) + v.From
	if v.From != v.To {
		slot = sort.Search(len(p.ends), func(k int) bool {
			a := p.ends[k]
			return a.From > v.From || (a.From == v.From && a.To >= v.To)
		})
	}
	return p.pos(slot, v.Token, v.Step)
}

// Unreachable reports whether the presolve proved the program infeasible.
func (p *Program) Unreachable() bool { return p.unreachable }

// LP returns the presolved relaxation.
func (p *Program) LP() *lp.Problem { return p.prob }

// BranchAndBound runs this package's branch-and-bound on prob and returns
// the optimal integral point (nil when infeasible) with its objective.
func BranchAndBound(prob *lp.Problem, globalLB float64, opts Options) ([]float64, float64, error) {
	s, err := newSolver(prob, globalLB, opts)
	if err != nil {
		return nil, 0, err
	}
	if err := s.run(); err != nil {
		return nil, 0, err
	}
	return s.bestX, s.bestObj, nil
}
