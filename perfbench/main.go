// Command perfbench is the repository benchmark: it generates one
// workload's inputs from a seed, drives the workload's cells through the
// program's public entry points as a closed loop of one worker
// (runner.Map), times the calls from outside, checks every output, and
// prints one JSON result line.
//
//	perfbench --workload paper-sweep --seed 1 --seconds 10 --trace 0
//
// The cells run on one worker with GOMAXPROCS=1, so a cell's time is its
// own, garbage collection included, and the sum of the cells' times is the
// sweep's wall time. Every cell is timed in every sweep, and each cell's
// time is its median over the run's sweeps. Every reported time is scaled
// by a host-speed probe taken between cells (calib.go).
//
// With --trace 0 the result holds the end-to-end metrics of untraced
// sweeps. With --trace 1 it holds the per-layer metrics of traced sweeps
// (spans recorded around each call into a layer), interleaved with
// untraced ones to measure the tracing overhead; the spans are written to
// .bench_build/traces/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"ocd/internal/runner"
	"ocd/internal/telemetry"
)

// Set-up runs at least setupMinRepeats times and until setupMinTime has
// passed; setup_s is the median.
const (
	setupMinRepeats = 7
	setupMaxRepeats = 200
	setupMinTime    = time.Second
)

// benchWorkers is the runner's worker count. With one worker on one
// processor (GOMAXPROCS=1) the program uses one CPU and leaves the others
// to the host, and each cell's time is its own rather than a share of a
// contended machine.
const benchWorkers = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-sweep | many-files | chaos | certify")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to run timed sweeps")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced sweeps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := setups(defaultSizes)[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (paper-sweep | many-files | chaos | certify), --seconds > 0, --trace 0|1\n")
		return 2
	}
	workers := benchWorkers
	runtime.GOMAXPROCS(benchWorkers)
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d go=%s %s/%s workers=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, workers)

	b := &bench{workers: workers, telemetry: *name == "many-files"}
	if err := b.setup(setup, *seed, *traceFlag == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))
	// The checked sweep is also the warm-up: it runs before timing starts.
	b.checkSweep()
	var metrics map[string]metric
	if *traceFlag == 1 {
		b.measureTraced(budget)
		b.verify()
		metrics = b.layerMetrics()
		path := fmt.Sprintf(".bench_build/traces/%s-seed%d.jsonl", *name, *seed)
		if err := writeSpans(path, b.tracedS[0].trace); err != nil {
			b.fail("write spans: %v", err)
		}
	} else {
		b.measure(budget)
		b.verify()
		metrics = b.endToEnd()
	}
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", p)
	}
	fmt.Fprintf(stdout, "samples: %d cells per sweep (the cell percentiles' sample count), %d timed sweeps, %d set-ups, %d probes; unscaled sweep %.4f s, host scale %.4f; failed_frac=%v\n",
		len(b.sw.cells), len(b.plain), len(b.setupDur), len(prober.times), sweepTime(b.plain)/1e3, prober.scale(), ratio(float64(b.failed), float64(b.attempted)))
	res := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// cellRun is one execution of one cell.
type cellRun struct {
	ran   bool // false when the cell panicked
	out   outcome
	plans plans
	dur   time.Duration
	err   error
}

// sample is one sweep: every cell once, through runner.Map.
type sample struct {
	wall  time.Duration
	alloc uint64
	rss   float64 // peak RSS during the sweep, MB
	runs  []cellRun
	reg   *telemetry.Registry
	trace *tracer
}

type bench struct {
	workers   int
	telemetry bool // attach a telemetry registry, as -telemetry users run the sweep

	sw       *sweep
	setupDur []time.Duration
	setupTr  []*tracer

	plain   []sample // untraced sweeps (with the registry on many-files)
	tracedS []sample
	noReg   []sample // many-files untraced sweeps without the registry

	checked           []cellRun
	attempted, failed int
	problems          []string
}

func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// setup generates the inputs repeatedly (see setupMinRepeats) and keeps
// the last sweep.
func (b *bench) setup(f setupFunc, seed int64, traced bool) error {
	var spent time.Duration
	for i := 0; i < setupMaxRepeats && (i < setupMinRepeats || spent < setupMinTime); i++ {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		ct := tr.cell(-1)
		runtime.GC()
		start := time.Now()
		sw, err := f(seed, ct)
		d := time.Since(start)
		if err != nil {
			return err
		}
		spent += d
		ct.flush()
		b.sw = sw
		b.setupDur = append(b.setupDur, d)
		b.setupTr = append(b.setupTr, tr)
	}
	return nil
}

// sweepOnce runs every cell once through runner.Map with b.workers
// workers. Cell errors are kept per cell, so one failing cell never hides
// another.
func (b *bench) sweepOnce(tr *tracer, reg *telemetry.Registry, check bool) sample {
	obs := telemetry.NewKernelObserver(reg, "sim").Observer()
	cells := make([]runner.Cell[cellRun], len(b.sw.cells))
	for i, c := range b.sw.cells {
		i, c := i, c
		cells[i] = runner.Cell[cellRun]{Key: c.key, Run: func(int64) (cellRun, error) {
			ct := tr.cell(i)
			root := ct.open("cell")
			if ct != nil {
				ct.root = root
			}
			start := time.Now()
			out, p, err := c.run(env{ct: ct, check: check, obs: obs})
			d := time.Since(start)
			ct.end(root)
			ct.flush()
			// Between cells, outside the cell's time and spans.
			prober.maybe()
			return cellRun{ran: true, out: out, plans: p, dur: d, err: err}, nil
		}}
	}
	// Start every sweep from the same memory state: garbage collected, and
	// the peak-RSS mark reset to the current RSS.
	runtime.GC()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if tr != nil {
		tr.epoch = start
	}
	// Cell errors and panics are kept per cell in runs; Map's own error
	// only repeats the first of them, unless it refused the cell set.
	runs, err := runner.Map(0, cells, runner.Options{Parallelism: b.workers, Metrics: telemetry.NewRunnerMetrics(reg)})
	if err != nil && runs == nil {
		b.fail("runner: %v", err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return sample{wall: wall, alloc: after.TotalAlloc - before.TotalAlloc, rss: peakRSSMB(), runs: runs, reg: reg, trace: tr}
}

func (b *bench) registry() *telemetry.Registry {
	if b.telemetry {
		return telemetry.New()
	}
	return nil
}

// measure runs untraced sweeps while the next one, as long as the last,
// still ends within the budget.
func (b *bench) measure(budget time.Duration) {
	start := time.Now()
	for len(b.plain) == 0 || time.Since(start)+b.plain[len(b.plain)-1].wall <= budget {
		b.plain = append(b.plain, b.sweepOnce(nil, b.registry(), false))
	}
}

// measureTraced interleaves untraced and traced sweeps (and, on
// many-files, untraced sweeps without the registry) while the next round,
// as long as the last, still ends within the budget.
func (b *bench) measureTraced(budget time.Duration) {
	start := time.Now()
	var round time.Duration
	for len(b.tracedS) == 0 || time.Since(start)+round <= budget {
		t0 := time.Now()
		b.plain = append(b.plain, b.sweepOnce(nil, b.registry(), false))
		b.tracedS = append(b.tracedS, b.sweepOnce(newTracer(), b.registry(), false))
		if b.telemetry {
			b.noReg = append(b.noReg, b.sweepOnce(nil, nil, false))
		}
		round = time.Since(t0)
	}
}

// checkSweep runs one untimed sweep with every output validated; its
// outcomes are the ones every timed sweep must reproduce.
func (b *bench) checkSweep() {
	s := b.sweepOnce(nil, nil, true)
	b.checked = s.runs
	for i, r := range s.runs {
		if !r.ran {
			b.fail("cell %s panicked", b.sw.cells[i].key)
		} else if r.err != nil {
			b.fail("cell %s: %v", b.sw.cells[i].key, r.err)
		}
	}
}

// verify requires every timed sweep to have produced exactly the checked
// outcomes, and the many-files registry to agree with the outcomes.
func (b *bench) verify() {
	all := [][]sample{b.plain, b.tracedS, b.noReg}
	for _, group := range all {
		for k, smp := range group {
			for i, r := range smp.runs {
				b.attempted++
				switch {
				case !r.ran || r.err != nil:
					b.failed++
					if !r.ran {
						b.fail("sweep %d: cell %s panicked", k, b.sw.cells[i].key)
					} else {
						b.fail("sweep %d: cell %s: %v", k, b.sw.cells[i].key, r.err)
					}
				case r.out != b.checked[i].out:
					b.failed++
					b.fail("sweep %d: cell %s digest %+v differs from the checked run's %+v",
						k, b.sw.cells[i].key, r.out, b.checked[i].out)
				}
			}
			b.crossCheck(smp)
		}
	}
}

// crossCheck compares the registry's deterministic counters with the
// counts the benchmark derives from the sweep's results.
func (b *bench) crossCheck(s sample) {
	if s.reg == nil {
		return
	}
	var planned, admitted, delivered, rejected, steps int
	for _, r := range s.runs {
		planned += r.out.Moves + r.out.Rejected
		admitted += r.out.Moves
		delivered += r.out.Delivered
		rejected += r.out.Rejected
		steps += r.out.Steps
	}
	for _, c := range []struct {
		name string
		want int
	}{
		{"kernel.sim.planned", planned},
		{"kernel.sim.admitted", admitted},
		{"kernel.sim.delivered", delivered},
		{"kernel.sim.rejected", rejected},
		{"kernel.sim.steps", steps},
		{"runner.cells", len(s.runs)},
	} {
		if got := s.reg.Counter(c.name).Value(); got != int64(c.want) {
			b.fail("telemetry %s = %d, benchmark counts %d", c.name, got, c.want)
		}
	}
}
