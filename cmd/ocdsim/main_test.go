package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ocd"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

func TestRunSingleHeuristic(t *testing.T) {
	out := runOK(t, "-n", "15", "-tokens", "8", "-heuristic", "local", "-seed", "3")
	if !strings.Contains(out, "local") || !strings.Contains(out, "completed=true") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRunAllHeuristics(t *testing.T) {
	out := runOK(t, "-n", "12", "-tokens", "6", "-heuristic", "all")
	for _, name := range []string{"roundrobin", "random", "local", "bandwidth", "global"} {
		if !strings.Contains(out, name) {
			t.Errorf("missing %s in output:\n%s", name, out)
		}
	}
}

func TestRunExtensionStrategies(t *testing.T) {
	for _, h := range []string{"tree", "forest-2", "protocol-local", "local-delayed-1"} {
		out := runOK(t, "-n", "12", "-tokens", "6", "-heuristic", h, "-patience", "10")
		if !strings.Contains(out, "completed=true") {
			t.Errorf("%s did not complete:\n%s", h, out)
		}
	}
}

func TestRunWorkloadsAndTopologies(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "transit-stub", "-n", "40", "-tokens", "6"},
		{"-workload", "density", "-n", "15", "-tokens", "6", "-density", "0.4"},
		{"-workload", "multifile", "-n", "15", "-tokens", "8", "-files", "4"},
		{"-workload", "multisender", "-n", "15", "-tokens", "8", "-files", "4"},
		{"-n", "12", "-tokens", "6", "-oracle"},
		{"-n", "12", "-tokens", "6", "-loss", "0.2"},
		{"-n", "12", "-tokens", "6", "-timeline"},
	} {
		if out := runOK(t, args...); !strings.Contains(out, "bounds:") {
			t.Errorf("args %v: output malformed:\n%s", args, out)
		}
	}
}

func TestRunDumpAndLoadInstance(t *testing.T) {
	dir := t.TempDir()
	instPath := filepath.Join(dir, "inst.json")
	schedPath := filepath.Join(dir, "sched.json")
	runOK(t, "-n", "12", "-tokens", "5", "-heuristic", "local",
		"-dump-instance", instPath, "-dump-schedule", schedPath)
	for _, p := range []string{instPath, schedPath} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("dump %s missing: %v", p, err)
		}
	}
	// Reload the dumped instance and run on it.
	out := runOK(t, "-instance", instPath, "-heuristic", "global")
	if !strings.Contains(out, "completed=true") {
		t.Errorf("loaded instance run failed:\n%s", out)
	}
}

func TestRunStepTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	out := runOK(t, "-n", "15", "-tokens", "8", "-heuristic", "local",
		"-loss", "0.1", "-steptrace", tracePath)
	if !strings.Contains(out, "local") {
		t.Errorf("output:\n%s", out)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatalf("step trace missing: %v", err)
	}
	defer f.Close()
	recs, err := ocd.DecodeStepTraceJSONL(f)
	if err != nil {
		t.Fatalf("step trace does not round-trip: %v", err)
	}
	if len(recs) == 0 {
		t.Error("step trace is empty")
	}
	// The trace must cover the whole run: total delivered moves match the
	// reported bandwidth column only loosely (losses), so just check the
	// counters are coherent.
	for _, rec := range recs {
		if rec.Moves < 0 || rec.ArcsUsed > rec.Moves+rec.Losses {
			t.Errorf("incoherent record: %+v", rec)
		}
	}
}

func TestRunStepTraceRejectsOracle(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "10", "-tokens", "4", "-oracle", "-steptrace", "t.jsonl"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-oracle") {
		t.Errorf("run accepted -steptrace with -oracle: %v", err)
	}
}

// TestTransitStubMinimumSize pins the rejection of transit-stub sizes the
// generator cannot build: the error names the minimum, and the minimum
// itself is accepted and builds exactly that many vertices.
func TestTransitStubMinimumSize(t *testing.T) {
	for _, n := range []string{"2", "39"} {
		var out bytes.Buffer
		err := run([]string{"-topology", "transit-stub", "-n", n, "-tokens", "4"}, &out)
		if err == nil {
			t.Errorf("-n %s accepted with -topology transit-stub", n)
			continue
		}
		if !strings.Contains(err.Error(), "must be at least 40") {
			t.Errorf("-n %s: error %q does not name the minimum 40", n, err)
		}
	}
	if out := runOK(t, "-topology", "transit-stub", "-n", "40", "-tokens", "4"); !strings.Contains(out, "graph: n=40 ") {
		t.Errorf("-n 40 did not build a 40-vertex graph:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-topology", "nope"},
		{"-workload", "nope"},
		{"-heuristic", "nope", "-n", "10", "-tokens", "4"},
		{"-instance", "/does/not/exist.json"},
		{"-workload", "multifile", "-n", "10", "-tokens", "7", "-files", "3"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestSpecModeList(t *testing.T) {
	out := runOK(t, "-list")
	for _, want := range []string{"graph-size", "figure1", "-param", "facade: ocd.Experiment"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in registry listing:\n%s", want, out)
		}
	}
}

func TestSpecModeExperiment(t *testing.T) {
	out := runOK(t, "-experiment", "theorem4", "-param", "decoys=1,4")
	if !strings.Contains(out, "Theorem 4") || !strings.Contains(out, "decoys") {
		t.Errorf("output:\n%s", out)
	}
}

func TestSpecModeSpecFile(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(specPath,
		[]byte(`[{"experiment":"figure1"},{"experiment":"theorem4","params":{"decoys":"1"}}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "-spec", specPath)
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "Theorem 4") {
		t.Errorf("spec file output:\n%s", out)
	}
}

func TestSpecModeErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-experiment", "nope"},
		{"-param", "n=12"},
		{"-experiment", "theorem4", "-param", "decoys=abc"},
		{"-experiment", "theorem4", "-spec", "x.json"},
		{"-spec", "/does/not/exist.json"},
		{"-list", "-experiment", "figure1"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	bad := [][]string{
		{"-n", "0"},
		{"-n", "-5"},
		{"-tokens", "0"},
		{"-loss", "-0.1"},
		{"-loss", "1.5"},
		{"-density", "2"},
		{"-patience", "-1"},
		{"-max-steps", "-1"},
		{"-files", "0"},
	}
	for _, args := range bad {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil {
			t.Errorf("run(%v) accepted out-of-range flags", args)
			continue
		}
		if !strings.Contains(err.Error(), "must be") {
			t.Errorf("run(%v): unclear error %q", args, err)
		}
	}
	// The validated boundary values stay accepted.
	runOK(t, "-n", "10", "-tokens", "4", "-loss", "0", "-patience", "0")
	runOK(t, "-n", "10", "-tokens", "4", "-loss", "1", "-patience", "5", "-max-steps", "30")
}
