package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"ocd"
	"ocd/internal/experiments"
	"ocd/internal/telemetry"
	"ocd/internal/topology"
)

// benchReport is the BENCH_<rev>.json schema ("ocd-bench/v1"): a machine-
// readable snapshot of the experiment grid's throughput and the per-step
// cost of every heuristic, recorded per revision so regressions show up as
// a diff against the committed file.
type benchReport struct {
	Schema   string `json:"schema"`
	Revision string `json:"revision"`
	Scale    string `json:"scale"`
	// GoMaxProcs is runtime.GOMAXPROCS at measurement time and NumCPU the
	// machine's logical CPU count — recorded honestly so the parallel-vs-
	// serial speedup figure can be judged against the hardware it ran on.
	GoMaxProcs int         `json:"gomaxprocs"`
	NumCPU     int         `json:"numcpu"`
	Grid       gridBench   `json:"grid"`
	Heuristics []heurBench `json:"heuristics"`
	Solver     solverBench `json:"solver"`
	// Telemetry is the deterministic metric snapshot of the parallel grid
	// run: kernel step-phase counters and runner cell counts. Wall-clock
	// metrics are printed but never recorded in the report — they would
	// make the artifact machine-dependent.
	Telemetry []telemetry.Metric `json:"telemetry,omitempty"`
}

// gridBench times the same (graph × heuristic × repeat) cell grid serially
// and at full parallelism. ParallelMatchesSerial is the determinism check:
// the two tables must be byte-identical.
type gridBench struct {
	Cells                 int     `json:"cells"`
	SerialSeconds         float64 `json:"serial_seconds"`
	ParallelSeconds       float64 `json:"parallel_seconds"`
	CellsPerSec           float64 `json:"cells_per_sec"`
	Speedup               float64 `json:"speedup_vs_serial"`
	ParallelMatchesSerial bool    `json:"parallel_matches_serial"`
}

// heurBench is the per-timestep cost of one heuristic on the reference
// single-file workload.
type heurBench struct {
	Name          string  `json:"name"`
	Steps         int     `json:"steps"`
	NsPerStep     float64 `json:"ns_per_step"`
	AllocsPerStep float64 `json:"allocs_per_step"`
}

const benchSchema = "ocd-bench/v1"

// benchRevision resolves the revision stamped into the report: an explicit
// -rev wins, then the VCS revision embedded by the Go toolchain, then "dev".
func benchRevision(override string) string {
	if override != "" {
		return override
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				if len(s.Value) > 12 {
					return s.Value[:12]
				}
				return s.Value
			}
		}
	}
	return "dev"
}

type benchParams struct {
	sizes           []int
	tokens          int
	graphSeeds      int
	repeats         int
	heurN           int
	heurTokens      int
	heurRuns        int
	solverInstances int
	solverN         int
	solverM         int
}

// The solver set is identical at both scales (it costs well under a
// second). compareBench refuses a baseline of another scale, so the quick
// CI smoke run compares against a committed quick-scale baseline.
func benchScale(quick bool) (string, benchParams) {
	if quick {
		return "quick", benchParams{
			sizes: []int{30, 60}, tokens: 40, graphSeeds: 2, repeats: 2,
			heurN: 60, heurTokens: 40, heurRuns: 3,
			solverInstances: 8, solverN: 6, solverM: 3,
		}
	}
	return "full", benchParams{
		sizes: []int{50, 100}, tokens: 100, graphSeeds: 3, repeats: 3,
		heurN: 100, heurTokens: 100, heurRuns: 5,
		solverInstances: 8, solverN: 6, solverM: 3,
	}
}

// benchGrid runs the Figure 2 sweep once serially and once at GOMAXPROCS
// and checks the outputs are byte-identical — the runner's determinism
// contract, measured rather than assumed. The parallel run records into
// the returned telemetry registry (the serial run stays uninstrumented so
// the attached registry provably does not perturb the output).
func benchGrid(p benchParams) (gridBench, *telemetry.Registry, error) {
	cfg := experiments.SweepConfig{
		Kind:       experiments.RandomGraph,
		Tokens:     p.tokens,
		Caps:       topology.DefaultCaps,
		GraphSeeds: p.graphSeeds,
		Repeats:    p.repeats,
		BaseSeed:   1,
	}
	run := func(parallelism int, tel *telemetry.Registry) (string, float64, error) {
		cfg.Parallelism = parallelism
		cfg.Telemetry = tel
		start := time.Now()
		t, err := experiments.GraphSize(cfg, p.sizes)
		if err != nil {
			return "", 0, err
		}
		return t.CSV(), time.Since(start).Seconds(), nil
	}
	serialCSV, serialSec, err := run(1, nil)
	if err != nil {
		return gridBench{}, nil, fmt.Errorf("serial grid: %w", err)
	}
	reg := telemetry.New()
	parallelCSV, parallelSec, err := run(0, reg)
	if err != nil {
		return gridBench{}, nil, fmt.Errorf("parallel grid: %w", err)
	}
	cells := len(p.sizes) * p.graphSeeds * len(ocd.Heuristics()) * p.repeats
	return gridBench{
		Cells:                 cells,
		SerialSeconds:         serialSec,
		ParallelSeconds:       parallelSec,
		CellsPerSec:           float64(cells) / parallelSec,
		Speedup:               serialSec / parallelSec,
		ParallelMatchesSerial: serialCSV == parallelCSV,
	}, reg, nil
}

// benchHeuristic measures the per-timestep cost of one heuristic: wall
// clock and heap allocations (runtime.MemStats mallocs delta) divided by
// the total simulated steps across the runs. The measurement repeats for a
// few passes and keeps the fastest — the minimum is the standard estimator
// for "cost of the code" under scheduler and GC noise, which single-pass
// numbers here were observed to swing by ±20%. Allocations are effectively
// deterministic, so the same pass serves both metrics.
func benchHeuristic(name string, inst *ocd.Instance, runs int) (heurBench, error) {
	// Warm-up run: pull one-time costs (lazy tables, first-touch growth)
	// out of the measurement.
	res, err := ocd.RunHeuristic(inst, name, ocd.RunOptions{Seed: 1, Prune: true})
	if err != nil {
		return heurBench{}, fmt.Errorf("%s warm-up: %w", name, err)
	}
	steps := res.Steps

	const passes = 3
	best := heurBench{Name: name, Steps: steps}
	for pass := 0; pass < passes; pass++ {
		var before, after runtime.MemStats
		totalSteps := 0
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < runs; i++ {
			res, err := ocd.RunHeuristic(inst, name, ocd.RunOptions{Seed: int64(i + 1), Prune: true})
			if err != nil {
				return heurBench{}, fmt.Errorf("%s run %d: %w", name, i, err)
			}
			totalSteps += res.Steps
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if totalSteps == 0 {
			return heurBench{}, fmt.Errorf("%s: zero steps simulated", name)
		}
		ns := float64(elapsed.Nanoseconds()) / float64(totalSteps)
		if pass == 0 || ns < best.NsPerStep {
			best.NsPerStep = ns
			best.AllocsPerStep = float64(after.Mallocs-before.Mallocs) / float64(totalSteps)
		}
	}
	return best, nil
}

// validateBench re-parses the serialized report and rejects structurally
// broken output, so a malformed BENCH file fails the producing run instead
// of a later consumer.
func validateBench(data []byte) error {
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench report is not valid JSON: %w", err)
	}
	switch {
	case r.Schema != benchSchema:
		return fmt.Errorf("bench report schema = %q, want %q", r.Schema, benchSchema)
	case r.Revision == "":
		return errors.New("bench report has no revision")
	case r.Grid.Cells <= 0 || r.Grid.CellsPerSec <= 0 || r.Grid.Speedup <= 0:
		return fmt.Errorf("bench report grid metrics not positive: %+v", r.Grid)
	case !r.Grid.ParallelMatchesSerial:
		return errors.New("bench report: parallel grid output diverged from serial")
	case len(r.Heuristics) == 0:
		return errors.New("bench report has no heuristic entries")
	}
	for _, h := range r.Heuristics {
		if h.Name == "" || h.NsPerStep <= 0 || h.Steps <= 0 || h.AllocsPerStep < 0 {
			return fmt.Errorf("bench report heuristic entry invalid: %+v", h)
		}
	}
	s := r.Solver
	if s.Instances <= 0 || s.ObjectiveSum <= 0 || s.BnBNodes <= 0 ||
		s.SimplexIterations <= 0 || s.Seconds <= 0 || s.NodesPerSec <= 0 {
		return fmt.Errorf("bench report solver metrics not positive: %+v", s)
	}
	var hasKernel, hasRunner bool
	for _, m := range r.Telemetry {
		if !m.IsDeterministic() {
			return fmt.Errorf("bench report telemetry entry %s is %s: only deterministic metrics belong in the artifact", m.Name, m.Class)
		}
		if strings.HasPrefix(m.Name, "kernel.") {
			hasKernel = true
		}
		if strings.HasPrefix(m.Name, "runner.") {
			hasRunner = true
		}
	}
	if !hasKernel || !hasRunner {
		return fmt.Errorf("bench report telemetry lacks kernel.* or runner.* counters: %+v", r.Telemetry)
	}
	return nil
}

// compareBench asserts the fresh report has not regressed against a
// committed baseline BENCH_*.json: per heuristic, ns/step and allocs/step
// must stay within tol of the baseline. Allocations get half an alloc/step
// of absolute slack on top, since step counts (the denominator) may differ
// between revisions. A missing or malformed baseline is an error; an extra
// baseline heuristic the fresh report lacks is too — shrinking coverage
// must not pass as a win.
func compareBench(report benchReport, baselinePath string, tol float64, stdout io.Writer) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading bench baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench baseline is not valid JSON: %w", err)
	}
	if base.Schema != benchSchema {
		return fmt.Errorf("bench baseline schema = %q, want %q", base.Schema, benchSchema)
	}
	// Per-step heuristic costs depend on the instance size, which the
	// scale sets: a quick run against a full baseline compares different
	// workloads, so refuse it instead of reporting size artifacts.
	if base.Scale != report.Scale {
		return fmt.Errorf("bench baseline %s was measured at scale %q, this run at %q: heuristic costs are not comparable across scales",
			base.Revision, base.Scale, report.Scale)
	}
	fresh := make(map[string]heurBench, len(report.Heuristics))
	for _, h := range report.Heuristics {
		fresh[h.Name] = h
	}
	var failures []string
	for _, b := range base.Heuristics {
		h, ok := fresh[b.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline %s but not measured", b.Name, base.Revision))
			continue
		}
		nsRatio := h.NsPerStep / b.NsPerStep
		allocRatio := h.AllocsPerStep / b.AllocsPerStep
		fmt.Fprintf(stdout, "compare %s: ns/step %.0f -> %.0f (%+.1f%%), allocs/step %.2f -> %.2f (%+.1f%%)\n",
			b.Name, b.NsPerStep, h.NsPerStep, (nsRatio-1)*100,
			b.AllocsPerStep, h.AllocsPerStep, (allocRatio-1)*100)
		if h.NsPerStep > b.NsPerStep*(1+tol) {
			failures = append(failures, fmt.Sprintf("%s: ns/step %.0f exceeds baseline %.0f by more than %.0f%%",
				b.Name, h.NsPerStep, b.NsPerStep, tol*100))
		}
		if h.AllocsPerStep > b.AllocsPerStep*(1+tol)+0.5 {
			failures = append(failures, fmt.Sprintf("%s: allocs/step %.2f exceeds baseline %.2f by more than %.0f%%",
				b.Name, h.AllocsPerStep, b.AllocsPerStep, tol*100))
		}
	}
	failures = append(failures, compareSolver(report.Solver, base.Solver, base.Revision, tol, stdout)...)
	if len(failures) > 0 {
		return fmt.Errorf("bench regression vs %s:\n  %s", baselinePath, joinLines(failures))
	}
	fmt.Fprintf(stdout, "compare: no regression vs %s (tolerance %.0f%%)\n", base.Revision, tol*100)
	return nil
}

// compareSolver gates the solver section. BnBNodes and SimplexIterations
// are deterministic counters of the branch-and-bound on the pinned
// instance set, so exceeding the baseline by more than tol is a genuine
// algorithmic regression, not machine noise; ObjectiveSum must match
// exactly — a drift there means the solver returned a different "optimum"
// and the build must fail regardless of speed. Baselines written before
// the solver section existed (zero Instances) are skipped with a note, as
// are baselines for a different pinned set (different scale or seed).
func compareSolver(fresh, base solverBench, baseRev string, tol float64, stdout io.Writer) []string {
	if base.Instances == 0 {
		fmt.Fprintf(stdout, "compare solver: baseline %s predates the solver section; skipping\n", baseRev)
		return nil
	}
	if base.Seed != fresh.Seed || base.Instances != fresh.Instances ||
		base.Vertices != fresh.Vertices || base.Tokens != fresh.Tokens {
		fmt.Fprintf(stdout, "compare solver: baseline %s pins a different instance set; skipping\n", baseRev)
		return nil
	}
	fmt.Fprintf(stdout, "compare solver: iterations %d -> %d (%+.1f%%), nodes %d -> %d, objective sum %d -> %d\n",
		base.SimplexIterations, fresh.SimplexIterations,
		(float64(fresh.SimplexIterations)/float64(base.SimplexIterations)-1)*100,
		base.BnBNodes, fresh.BnBNodes, base.ObjectiveSum, fresh.ObjectiveSum)
	var failures []string
	if fresh.ObjectiveSum != base.ObjectiveSum {
		failures = append(failures, fmt.Sprintf(
			"solver: objective sum %d differs from baseline %d — optimality or determinism broke",
			fresh.ObjectiveSum, base.ObjectiveSum))
	}
	if float64(fresh.SimplexIterations) > float64(base.SimplexIterations)*(1+tol) {
		failures = append(failures, fmt.Sprintf(
			"solver: simplex iterations %d exceed baseline %d by more than %.0f%%",
			fresh.SimplexIterations, base.SimplexIterations, tol*100))
	}
	if float64(fresh.BnBNodes) > float64(base.BnBNodes)*(1+tol) {
		failures = append(failures, fmt.Sprintf(
			"solver: branch-and-bound nodes %d exceed baseline %d by more than %.0f%%",
			fresh.BnBNodes, base.BnBNodes, tol*100))
	}
	return failures
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}

// runBench produces BENCH_<rev>.json in outDir and prints a one-line
// summary per section. The report is validated before it is written; an
// invalid report is an error, not an artifact. The written report is
// returned so -compare can check it against a baseline.
func runBench(quick bool, rev, outDir string, stdout io.Writer) (benchReport, error) {
	scale, p := benchScale(quick)
	report := benchReport{
		Schema:     benchSchema,
		Revision:   benchRevision(rev),
		Scale:      scale,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	grid, gridTel, err := benchGrid(p)
	if err != nil {
		return benchReport{}, err
	}
	report.Grid = grid
	report.Telemetry = gridTel.DeterministicSnapshot()
	fmt.Fprintf(stdout, "grid: %d cells, %.1f cells/sec, %.2fx vs serial, parallel==serial: %v\n",
		grid.Cells, grid.CellsPerSec, grid.Speedup, grid.ParallelMatchesSerial)

	g, err := ocd.RandomTopology(p.heurN, ocd.DefaultCaps, 1)
	if err != nil {
		return benchReport{}, err
	}
	inst := ocd.SingleFile(g, p.heurTokens)
	for _, name := range ocd.Heuristics() {
		h, err := benchHeuristic(name, inst, p.heurRuns)
		if err != nil {
			return benchReport{}, err
		}
		report.Heuristics = append(report.Heuristics, h)
		fmt.Fprintf(stdout, "%s: %.0f ns/step, %.1f allocs/step (%d steps)\n",
			h.Name, h.NsPerStep, h.AllocsPerStep, h.Steps)
	}

	solver, err := benchSolver(p)
	if err != nil {
		return benchReport{}, err
	}
	report.Solver = solver
	fmt.Fprintf(stdout, "solver: %d instances, %d nodes, %d simplex iterations, %d warm starts, %.1f nodes/sec, objective sum %d\n",
		solver.Instances, solver.BnBNodes, solver.SimplexIterations,
		solver.WarmStarts, solver.NodesPerSec, solver.ObjectiveSum)

	fmt.Fprintf(stdout, "telemetry (parallel grid run):\n%s", gridTel.Summary())

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return benchReport{}, err
	}
	data = append(data, '\n')
	if err := validateBench(data); err != nil {
		return benchReport{}, err
	}
	path := filepath.Join(outDir, "BENCH_"+report.Revision+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return benchReport{}, fmt.Errorf("writing bench report: %w", err)
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return report, nil
}
