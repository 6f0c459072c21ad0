package main

// The four workloads. Each set-up generates a sweep's inputs from the
// workload seed with the program's own generators (topology, workload,
// fault.AtIntensity, experiments.RandomTinyInstances) and returns the
// sweep's cells; each cell is one call into the program's public entry
// points (sim.Run, fault.Run, exact.SolveFOCD/SolveEOCD, ilp.Build +
// SolveStats, core.Prune), built exactly as the registered experiment
// builds it, so the benchmark does the same work as `ocdsim -experiment`.

import (
	"errors"
	"fmt"
	"strings"

	"ocd/internal/core"
	"ocd/internal/exact"
	"ocd/internal/experiments"
	"ocd/internal/fault"
	"ocd/internal/graph"
	"ocd/internal/heuristics"
	"ocd/internal/ilp"
	"ocd/internal/runner"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// outcome is a cell's deterministic result. Two runs of the same cell —
// traced or not, in any sweep — must produce equal outcomes.
type outcome struct {
	Steps, Moves, Delivered, Rejected, Lost, Pruned int
	Completed                                       bool
	// Fault cells.
	Stalled, Graceful        bool
	DeliveredFrac            float64
	Retrans, Wasted, Crashes int
	// Certify cells: the ILP horizon and objective; Steps is the exact
	// FOCD optimum and Moves the exact EOCD optimum at Tau.
	Tau, ILPObj                              int
	Nodes, LPIters, BoundFlips, LPWarmStarts int
}

// plans is what the Plan-timing wrapper saw in one traced cell.
type plans struct{ calls, proposed int }

// env is what a cell run may use besides its inputs.
type env struct {
	// ct records the cell's spans; nil in an untraced run.
	ct *cellTrace
	// check validates the cell's outputs after the call returns.
	check bool
	// obs is the kernel Observer seat (the many-files telemetry registry).
	obs sim.Observer
}

// meta locates a cell in its experiment's table.
type meta struct {
	topo      string
	n, files  int
	heuristic string
	gs        int
	x         float64
	baseline  bool
	expSeed   int64
}

// cellKind names the engine a cell drives.
type cellKind int

const (
	kindSim     cellKind = iota // sim.Run (+ core.Prune)
	kindFault                   // fault.Run
	kindCertify                 // exact.SolveFOCD/SolveEOCD + ilp.Build/SolveStats
)

// cell is one unit of sweep work.
type cell struct {
	key  string
	kind cellKind
	meta meta
	// wanted is Σ_v |w(v)| of the cell's instance (the delivered_frac base).
	wanted int
	// lb is the §5.1 lower bounds of the cell's instance.
	lb  lowerBounds
	run func(e env) (outcome, plans, error)
}

// sweep is one workload's generated inputs: the cells every sweep
// repetition runs, in canonical order.
type sweep struct {
	cells []cell
	// bounds holds the §5.1 lower bounds of the paper-sweep and many-files
	// instances, keyed like boundsKey, for the equivalence tests'
	// movesLB/bwLB columns.
	bounds map[string]lowerBounds
}

type lowerBounds struct{ makespan, bandwidth int }

// setupFunc generates a workload's sweep from the workload seed.
type setupFunc func(seed int64, ct *cellTrace) (*sweep, error)

// sizes fixes the shape of each workload. The benchmark uses defaultSizes;
// the equivalence tests shrink them.
type sizes struct {
	paperN          []int
	paperTokens     int
	paperGraphSeeds int
	paperRepeats    int

	filesN          int
	filesTokens     int
	filesCounts     []int
	filesGraphSeeds int

	chaosN      int
	chaosTokens int
	chaosX      []float64
	chaosH      []string
	chaosSeeds  int

	certifyInstances int
	certifyN         int
	certifyM         int
}

var defaultSizes = sizes{
	paperN:          []int{100, 250, 500},
	paperTokens:     50,
	paperGraphSeeds: 5,
	paperRepeats:    1,

	filesN:          80,
	filesTokens:     256,
	filesCounts:     []int{1, 4, 16, 64},
	filesGraphSeeds: 10,

	chaosN:      12,
	chaosTokens: 8,
	chaosX:      []float64{0, 0.25, 0.5, 0.75, 1},
	chaosH:      []string{"local", "bandwidth", "retry-local"},
	chaosSeeds:  384,

	certifyInstances: 5000,
	certifyN:         4,
	certifyM:         2,
}

// setups maps workload names to their set-up at the given sizes.
func setups(z sizes) map[string]setupFunc {
	return map[string]setupFunc{
		"paper-sweep": z.paperSweep,
		"many-files":  z.manyFiles,
		"chaos":       z.chaos,
		"certify":     z.certify,
	}
}

func boundsKey(topo string, n, files, gs int) string {
	return fmt.Sprintf("%s/n%d/f%d/gs%d", topo, n, files, gs)
}

// bounds computes the instance's §5.1 lower bounds inside a span.
func bounds(ct *cellTrace, inst *core.Instance) lowerBounds {
	return timed(ct, "core.lower_bounds", func() lowerBounds {
		return lowerBounds{core.MakespanLowerBound(inst, nil), core.BandwidthLowerBound(inst, nil)}
	})
}

func wantedPairs(inst *core.Instance) int {
	w := 0
	for _, s := range inst.Want {
		w += s.Count()
	}
	return w
}

// paperSweep is the Figures 2/3 graph-size sweep over both topology
// families: graph-size with seed=seed·paperGraphSeeds (so that distinct
// workload seeds draw disjoint graphs), one cell per (topology, n, graph
// seed, heuristic, repeat).
func (z sizes) paperSweep(seed int64, ct *cellTrace) (*sweep, error) {
	sw := &sweep{bounds: map[string]lowerBounds{}}
	seed *= int64(z.paperGraphSeeds)
	for _, topo := range []string{"random", "transit-stub"} {
		for _, n := range z.paperN {
			for gs := 0; gs < z.paperGraphSeeds; gs++ {
				gseed := seed + int64(gs)
				g, err := timed2(ct, "topology.gen", func() (*graph.Graph, error) {
					if topo == "transit-stub" {
						return topology.TransitStubN(n, topology.DefaultCaps, gseed)
					}
					return topology.Random(n, topology.DefaultCaps, gseed)
				})
				if err != nil {
					return nil, err
				}
				inst := timed(ct, "workload.build", func() *core.Instance {
					return workload.SingleFile(g, z.paperTokens)
				})
				lb := bounds(ct, inst)
				sw.bounds[boundsKey(topo, n, 0, gs)] = lb
				sw.addSimCells(inst, lb, meta{topo: topo, n: n, gs: gs, expSeed: seed}, z.paperRepeats)
			}
		}
	}
	return sw, nil
}

// manyFiles is the Figure 6 num-files sweep with multiple senders on
// random graphs: num-files with multi-sender=true and
// seed=seed·filesGraphSeeds.
func (z sizes) manyFiles(seed int64, ct *cellTrace) (*sweep, error) {
	sw := &sweep{bounds: map[string]lowerBounds{}}
	seed *= int64(z.filesGraphSeeds)
	for _, files := range z.filesCounts {
		for gs := 0; gs < z.filesGraphSeeds; gs++ {
			gseed := seed + int64(gs)
			g, err := timed2(ct, "topology.gen", func() (*graph.Graph, error) {
				return topology.Random(z.filesN, topology.DefaultCaps, gseed)
			})
			if err != nil {
				return nil, err
			}
			inst, err := timed2(ct, "workload.build", func() (*core.Instance, error) {
				return workload.MultiSender(g, z.filesTokens, files, gseed+104729)
			})
			if err != nil {
				return nil, err
			}
			lb := bounds(ct, inst)
			sw.bounds[boundsKey("random", z.filesN, files, gs)] = lb
			sw.addSimCells(inst, lb, meta{topo: "random", n: z.filesN, files: files, gs: gs, expSeed: seed}, 1)
		}
	}
	return sw, nil
}

// addSimCells appends one sim.Run cell per (heuristic, repeat) on inst.
// Cell seeds follow the graph-size/num-files derivation: every heuristic
// at the same (graph seed, repeat) gets the same seed.
func (sw *sweep) addSimCells(inst *core.Instance, lb lowerBounds, m meta, repeats int) {
	wanted := wantedPairs(inst)
	for _, h := range heuristics.Names() {
		for r := 0; r < repeats; r++ {
			cm := m
			cm.heuristic = h
			seed := runner.Seed(m.expSeed, fmt.Sprintf("gs%d/r%d", m.gs, r))
			sw.cells = append(sw.cells, cell{
				key:    fmt.Sprintf("%s/n%d/f%d/gs%d/%s/r%d", m.topo, m.n, m.files, m.gs, h, r),
				kind:   kindSim,
				meta:   cm,
				wanted: wanted,
				lb:     lb,
				run:    simRun(inst, lb, h, seed),
			})
		}
	}
}

// simRun is one heuristic run through sim.Run with pruning, as the sweep
// drivers make it. Traced, the prune post-pass is called separately so
// core.Prune gets its own span; the pruned count is the same.
func simRun(inst *core.Instance, lb lowerBounds, h string, seed int64) func(env) (outcome, plans, error) {
	return func(e env) (outcome, plans, error) {
		f, _ := heuristics.Named(h)
		parent := -1
		var p plans
		if e.ct != nil {
			f = timePlans(f, e.ct, h, &parent, &p)
		}
		parent = e.ct.open("sim.run")
		res, err := sim.Run(inst, f, sim.Options{Seed: seed, Prune: e.ct == nil, Observer: e.obs})
		e.ct.end(parent)
		if err != nil {
			return outcome{}, plans{}, err
		}
		if !res.Completed {
			return outcome{}, plans{}, fmt.Errorf("%s did not complete in %d steps", h, res.Steps)
		}
		if e.ct != nil {
			res.PrunedMoves = timed(e.ct, "core.prune", func() int {
				return core.Prune(inst, res.Schedule).Moves()
			})
		}
		out := outcome{
			Steps: res.Steps, Moves: res.Moves, Delivered: res.Schedule.Moves(),
			Rejected: res.Rejected, Lost: res.Lost, Pruned: res.PrunedMoves,
			Completed: true, DeliveredFrac: 1,
		}
		if e.check {
			if err := checkSim(inst, lb, res); err != nil {
				return out, p, err
			}
		}
		return out, p, nil
	}
}

// checkSim validates a completed sim run: the schedule is valid and
// successful, and its makespan, bandwidth and pruned bandwidth respect the
// §5.1 lower bounds.
func checkSim(inst *core.Instance, lb lowerBounds, res *sim.Result) error {
	if err := core.Validate(inst, res.Schedule); err != nil {
		return fmt.Errorf("schedule invalid: %w", err)
	}
	return checkBounds(lb, res.Steps, res.Moves, res.PrunedMoves)
}

func checkBounds(lb lowerBounds, steps int, moves ...int) error {
	if steps < lb.makespan {
		return fmt.Errorf("makespan %d below lower bound %d", steps, lb.makespan)
	}
	for _, m := range moves {
		if m < lb.bandwidth {
			return fmt.Errorf("bandwidth %d below lower bound %d", m, lb.bandwidth)
		}
	}
	return nil
}

// chaosSeedKey is the chaos experiment's single seed key: every cell of
// one chaos table runs off the same derived seed.
const chaosSeedKey = "chaos-workload"

// chaos is the fault-engine sweep: for each of chaosSeeds experiment
// seeds s, the chaos experiment with seed=s — its fault-free baseline
// cells and its intensity × heuristic grid. The seeds are hashed from
// (seed, k) so that they differ in their high bits: the fault models fold
// the seed into their hash by XOR with the step index, so seeds that
// differ only in low bits replay each other's draws permuted in time, and
// consecutive experiment seeds are not independent samples.
func (z sizes) chaos(seed int64, ct *cellTrace) (*sweep, error) {
	sw := &sweep{}
	for k := 0; k < z.chaosSeeds; k++ {
		s := int64(splitmix64(uint64(seed)*uint64(z.chaosSeeds)+uint64(k)) >> 1)
		g, err := timed2(ct, "topology.gen", func() (*graph.Graph, error) {
			return topology.Random(z.chaosN, topology.DefaultCaps, s)
		})
		if err != nil {
			return nil, err
		}
		inst := timed(ct, "workload.build", func() *core.Instance {
			return workload.SingleFile(g, z.chaosTokens)
		})
		lb := bounds(ct, inst)
		cseed := runner.Seed(s, chaosSeedKey)
		wanted := wantedPairs(inst)
		m := meta{topo: "random", n: z.chaosN, gs: k, expSeed: s}
		for _, h := range z.chaosH {
			cm := m
			cm.heuristic, cm.baseline = h, true
			sw.cells = append(sw.cells, cell{
				key: fmt.Sprintf("s%d/baseline/%s", k, h), kind: kindFault, meta: cm, wanted: wanted, lb: lb,
				run: faultRun(inst, lb, h, fault.Plan{}, -1, cseed),
			})
		}
		for _, x := range z.chaosX {
			for _, h := range z.chaosH {
				cm := m
				cm.heuristic, cm.x = h, x
				// The run builds its own plan (the models are stateful);
				// this copy, built here, is the one the checks replay.
				plan := timed(ct, "fault.plan_build", func() fault.Plan {
					return fault.AtIntensity(x, cseed, 0)
				})
				sw.cells = append(sw.cells, cell{
					key: fmt.Sprintf("s%d/x%.2f/%s", k, x, h), kind: kindFault, meta: cm, wanted: wanted, lb: lb,
					run: faultRun(inst, lb, h, plan, x, cseed),
				})
			}
		}
	}
	return sw, nil
}

// splitmix64 is the SplitMix64 output function: a bijective 64-bit mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultRun is one chaos cell through fault.Run. x < 0 marks a fault-free
// baseline cell, which must complete; a grid cell may stall (row data).
// checkPlan is the set-up's copy of the cell's plan for fault.Validate.
func faultRun(inst *core.Instance, lb lowerBounds, name string, checkPlan fault.Plan, x float64, seed int64) func(env) (outcome, plans, error) {
	inner, retry := strings.CutPrefix(name, "retry-")
	return func(e env) (outcome, plans, error) {
		plan := fault.Plan{}
		if x >= 0 {
			plan = fault.AtIntensity(x, seed, 0) // vertex 0 is the source: protect it
		}
		f, _ := heuristics.Named(inner)
		parent := -1
		var p plans
		if e.ct != nil {
			f = timePlans(f, e.ct, inner, &parent, &p)
		}
		if retry {
			f = fault.WithRetry(f, fault.RetryOptions{})
		}
		parent = e.ct.open("fault.run")
		res, err := fault.Run(inst, f, plan, sim.Options{Seed: seed, IdlePatience: 40})
		e.ct.end(parent)
		stalled := errors.Is(err, sim.ErrStalled)
		if err != nil && !stalled {
			return outcome{}, plans{}, err
		}
		if x < 0 && (err != nil || !res.Completed) {
			return outcome{}, plans{}, fmt.Errorf("fault-free baseline did not complete (err=%v)", err)
		}
		out := outcome{
			Steps: res.Steps, Moves: res.Moves, Delivered: res.Schedule.Moves(),
			Rejected: res.Rejected, Lost: res.Lost, Pruned: res.PrunedMoves,
			Completed: res.Completed, Stalled: stalled, Graceful: res.Graceful,
			DeliveredFrac: res.DeliveredFraction,
			Retrans:       res.Retransmissions, Wasted: res.WastedMoves, Crashes: res.Crashes,
		}
		if e.check {
			if err := fault.Validate(inst, res.Schedule, checkPlan); err != nil {
				return out, p, fmt.Errorf("faulted schedule invalid: %w", err)
			}
			if res.Completed {
				if err := checkBounds(lb, res.Steps, res.Moves, res.Schedule.Moves()); err != nil {
					return out, p, err
				}
			}
		}
		return out, p, nil
	}
}

// certify is the ilp-vs-bnb cross-check on random tiny instances.
func (z sizes) certify(seed int64, ct *cellTrace) (*sweep, error) {
	sw := &sweep{}
	insts := timed(ct, "workload.build", func() []*core.Instance {
		return experiments.RandomTinyInstances(seed, z.certifyInstances, z.certifyN, z.certifyM)
	})
	for i, inst := range insts {
		lb := bounds(ct, inst)
		sw.cells = append(sw.cells, cell{
			key:    fmt.Sprintf("inst%d", i),
			kind:   kindCertify,
			meta:   meta{expSeed: seed},
			wanted: wantedPairs(inst),
			lb:     lb,
			run:    certifyRun(inst, lb),
		})
	}
	return sw, nil
}

// certifyRun solves exact FOCD, exact EOCD at τ = FOCD optimum + 1, and
// the time-indexed ILP at the same τ, as ilp-vs-bnb does.
func certifyRun(inst *core.Instance, lb lowerBounds) func(env) (outcome, plans, error) {
	return func(e env) (outcome, plans, error) {
		fast, err := timed2(e.ct, "exact.focd", func() (*core.Schedule, error) {
			return exact.SolveFOCD(inst, exact.Options{})
		})
		if err != nil {
			return outcome{}, plans{}, fmt.Errorf("focd: %w", err)
		}
		tau := fast.Makespan() + 1
		bnb, err := timed2(e.ct, "exact.eocd", func() (*core.Schedule, error) {
			return exact.SolveEOCD(inst, tau, exact.Options{})
		})
		if err != nil {
			return outcome{}, plans{}, fmt.Errorf("eocd: %w", err)
		}
		prog, err := timed2(e.ct, "ilp.build", func() (*ilp.Program, error) {
			return ilp.Build(inst, tau)
		})
		if err != nil {
			return outcome{}, plans{}, err
		}
		var st ilp.Stats
		var obj int
		sched, err := timed2(e.ct, "ilp.solve", func() (*core.Schedule, error) {
			s, o, stats, err := prog.SolveStats(ilp.Options{})
			obj, st = o, stats
			return s, err
		})
		if err != nil {
			return outcome{}, plans{}, fmt.Errorf("ilp: %w", err)
		}
		out := outcome{
			Steps: fast.Makespan(), Moves: bnb.Moves(), Delivered: bnb.Moves(),
			Completed: true, DeliveredFrac: 1, Tau: tau, ILPObj: obj,
			Nodes: st.Nodes, LPIters: st.SimplexIterations, BoundFlips: st.BoundFlips, LPWarmStarts: st.WarmStarts,
		}
		if e.check {
			for i, s := range []*core.Schedule{fast, bnb, sched} {
				if err := core.Validate(inst, s); err != nil {
					return out, plans{}, fmt.Errorf("%s schedule invalid: %w", []string{"focd", "eocd", "ilp"}[i], err)
				}
			}
			if obj != bnb.Moves() || sched.Moves() != obj {
				return out, plans{}, fmt.Errorf("ILP objective %d (schedule %d moves) != exact EOCD optimum %d at tau=%d",
					obj, sched.Moves(), bnb.Moves(), tau)
			}
			if bnb.Makespan() > tau || sched.Makespan() > tau {
				return out, plans{}, fmt.Errorf("schedule exceeds tau=%d", tau)
			}
			if err := checkBounds(lb, fast.Makespan(), bnb.Moves()); err != nil {
				return out, plans{}, err
			}
		}
		return out, plans{}, nil
	}
}
