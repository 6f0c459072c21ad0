package main

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ocd/internal/experiments"
	"ocd/internal/heuristics"
	"ocd/internal/stats"
)

// small is the shape the equivalence tests run at.
var small = sizes{
	paperN:          []int{12, 16},
	paperTokens:     8,
	paperGraphSeeds: 2,
	paperRepeats:    2,

	filesN:          20,
	filesTokens:     8,
	filesCounts:     []int{1, 2, 4},
	filesGraphSeeds: 2,

	chaosN:      12,
	chaosTokens: 6,
	chaosX:      []float64{0, 0.5, 1},
	chaosH:      []string{"local", "bandwidth", "retry-local"},
	chaosSeeds:  2,

	certifyInstances: 6,
	certifyN:         4,
	certifyM:         2,
}

const testSeed = 3

// runSmall sets up a workload at the small shape and runs one checked
// sweep, untraced, and one traced sweep; the two must agree cell by cell.
func runSmall(t *testing.T, name string) (*bench, []cellRun) {
	t.Helper()
	sw, err := setups(small)[name](testSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{workers: 2, sw: sw, telemetry: name == "many-files"}
	checked := b.sweepOnce(nil, b.registry(), true)
	traced := b.sweepOnce(newTracer(), b.registry(), false)
	for i, r := range checked.runs {
		if !r.ran || r.err != nil {
			t.Fatalf("%s: cell %s failed: %v", name, sw.cells[i].key, r.err)
		}
		if traced.runs[i].out != r.out {
			t.Errorf("%s: cell %s traced digest %+v, untraced %+v", name, sw.cells[i].key, traced.runs[i].out, r.out)
		}
	}
	b.crossCheck(checked)
	b.crossCheck(traced)
	if len(b.problems) > 0 {
		t.Fatalf("%s: %v", name, b.problems)
	}
	return b, checked.runs
}

func experiment(t *testing.T, name string, params map[string]string) [][]string {
	t.Helper()
	tab, err := experiments.RunStrings(name, params)
	if err != nil {
		t.Fatal(err)
	}
	return tab.Rows
}

func joinInts(xs []int) string {
	return strings.Trim(strings.Join(strings.Fields(fmt.Sprint(xs)), ","), "[]")
}

// sweepRows renders graph-size / num-files rows from sim cells: per sweep
// point (n or file count) and heuristic, the means the tables print.
func sweepRows(b *bench, runs []cellRun, topo string, points []int, point func(meta) int, boundsKeyOf func(p, gs int) string, graphSeeds int) [][]string {
	var tab experiments.Table
	for _, p := range points {
		var steps, bws []int
		for gs := 0; gs < graphSeeds; gs++ {
			lb := b.sw.bounds[boundsKeyOf(p, gs)]
			steps = append(steps, lb.makespan)
			bws = append(bws, lb.bandwidth)
		}
		for _, h := range heuristics.Names() {
			var s, bw, pr []int
			for i, r := range runs {
				m := b.sw.cells[i].meta
				if m.topo == topo && point(m) == p && m.heuristic == h {
					s, bw, pr = append(s, r.out.Steps), append(bw, r.out.Moves), append(pr, r.out.Pruned)
				}
			}
			tab.AddRow(p, h, stats.SummarizeInts(s).Mean, stats.SummarizeInts(bw).Mean, stats.SummarizeInts(pr).Mean,
				stats.SummarizeInts(steps).Mean, stats.SummarizeInts(bws).Mean, 0)
		}
	}
	return tab.Rows
}

func TestPaperSweepMatchesGraphSize(t *testing.T) {
	b, runs := runSmall(t, "paper-sweep")
	for _, topo := range []string{"random", "transit-stub"} {
		got := sweepRows(b, runs, topo, small.paperN, func(m meta) int { return m.n },
			func(n, gs int) string { return boundsKey(topo, n, 0, gs) }, small.paperGraphSeeds)
		want := experiment(t, "graph-size", map[string]string{
			"topology": topo, "sizes": joinInts(small.paperN), "tokens": fmt.Sprint(small.paperTokens),
			"graph-seeds": fmt.Sprint(small.paperGraphSeeds), "repeats": fmt.Sprint(small.paperRepeats),
			"seed": fmt.Sprint(testSeed * small.paperGraphSeeds),
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: benchmark rows\n%v\nexperiment rows\n%v", topo, got, want)
		}
	}
}

func TestManyFilesMatchesNumFiles(t *testing.T) {
	b, runs := runSmall(t, "many-files")
	got := sweepRows(b, runs, "random", small.filesCounts, func(m meta) int { return m.files },
		func(f, gs int) string { return boundsKey("random", small.filesN, f, gs) }, small.filesGraphSeeds)
	want := experiment(t, "num-files", map[string]string{
		"n": fmt.Sprint(small.filesN), "files": joinInts(small.filesCounts), "multi-sender": "true",
		"tokens": fmt.Sprint(small.filesTokens), "graph-seeds": fmt.Sprint(small.filesGraphSeeds),
		"repeats": "1", "seed": fmt.Sprint(testSeed * small.filesGraphSeeds),
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("benchmark rows\n%v\nexperiment rows\n%v", got, want)
	}
}

func TestChaosMatchesChaos(t *testing.T) {
	b, runs := runSmall(t, "chaos")
	for k := 0; k < small.chaosSeeds; k++ {
		var tab experiments.Table
		baseline := map[string]int{}
		var expSeed int64
		for i, r := range runs {
			if m := b.sw.cells[i].meta; m.gs == k && m.baseline {
				baseline[m.heuristic], expSeed = r.out.Steps, m.expSeed
			}
		}
		for i, r := range runs {
			m, o := b.sw.cells[i].meta, r.out
			if m.gs != k || m.baseline {
				continue
			}
			word := "timeout"
			switch {
			case o.Stalled:
				word = "stalled"
			case o.Completed:
				word = "completed"
			case o.Graceful:
				word = "graceful"
			}
			inflation := "-"
			if o.Completed && baseline[m.heuristic] > 0 {
				inflation = fmt.Sprintf("%.2f", float64(o.Steps)/float64(baseline[m.heuristic]))
			}
			tab.AddRow(fmt.Sprintf("%.2f", m.x), m.heuristic, word, fmt.Sprintf("%.0f%%", o.DeliveredFrac*100),
				o.Moves, o.Lost, o.Retrans, o.Wasted, o.Crashes, inflation)
		}
		xs := make([]string, len(small.chaosX))
		for i, x := range small.chaosX {
			xs[i] = fmt.Sprint(x)
		}
		want := experiment(t, "chaos", map[string]string{
			"n": fmt.Sprint(small.chaosN), "tokens": fmt.Sprint(small.chaosTokens),
			"intensities": strings.Join(xs, ","), "heuristics": strings.Join(small.chaosH, ","),
			"seed": fmt.Sprint(expSeed),
		})
		if !reflect.DeepEqual(tab.Rows, want) {
			t.Errorf("topology seed %d: benchmark rows\n%v\nexperiment rows\n%v", expSeed, tab.Rows, want)
		}
	}
}

func TestCertifyMatchesILPvsBnB(t *testing.T) {
	_, runs := runSmall(t, "certify")
	var tab experiments.Table
	for i, r := range runs {
		tab.AddRow(i, small.certifyN, small.certifyM, r.out.Tau, r.out.ILPObj, r.out.Moves, r.out.ILPObj == r.out.Moves)
	}
	want := experiment(t, "ilp-vs-bnb", map[string]string{
		"instances": fmt.Sprint(small.certifyInstances), "n": fmt.Sprint(small.certifyN),
		"m": fmt.Sprint(small.certifyM), "seed": fmt.Sprint(testSeed),
	})
	if !reflect.DeepEqual(tab.Rows, want) {
		t.Errorf("benchmark rows\n%v\nexperiment rows\n%v", tab.Rows, want)
	}
}

// TestCrossCheckCatchesMismatch: a registry that disagrees with the
// outcomes is reported.
func TestCrossCheckCatchesMismatch(t *testing.T) {
	sw, err := setups(small)["many-files"](testSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{workers: 2, sw: sw, telemetry: true}
	s := b.sweepOnce(nil, b.registry(), false)
	s.reg.Counter("kernel.sim.rejected").Add(1)
	b.crossCheck(s)
	if len(b.problems) != 1 || !strings.Contains(b.problems[0], "kernel.sim.rejected") {
		t.Errorf("problems = %v, want one kernel.sim.rejected mismatch", b.problems)
	}
}

// TestFailingCellFailsRun: a cell error counts as failed and the command
// exits non-zero.
func TestFailingCellFailsRun(t *testing.T) {
	sw, err := setups(small)["certify"](testSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw.cells[1].run = func(env) (outcome, plans, error) { return outcome{}, plans{}, errors.New("boom") }
	b := &bench{workers: 2, sw: sw}
	b.checkSweep()
	b.measure(0)
	b.verify()
	if b.failed != 1 || b.attempted != len(sw.cells) || len(b.problems) == 0 {
		t.Errorf("failed=%d attempted=%d problems=%v", b.failed, b.attempted, b.problems)
	}
}
