package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, report benchReport) string {
	t.Helper()
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func benchFixture(ns, allocs float64) benchReport {
	return benchReport{
		Schema:   benchSchema,
		Revision: "base",
		Heuristics: []heurBench{
			{Name: "local", Steps: 10, NsPerStep: ns, AllocsPerStep: allocs},
		},
	}
}

func TestCompareBench(t *testing.T) {
	base := writeBaseline(t, benchFixture(1000, 40))
	var out bytes.Buffer

	t.Run("within tolerance passes", func(t *testing.T) {
		if err := compareBench(benchFixture(1040, 41), base, 0.05, &out); err != nil {
			t.Errorf("4%% drift rejected at 5%% tolerance: %v", err)
		}
	})
	t.Run("faster and leaner passes", func(t *testing.T) {
		if err := compareBench(benchFixture(500, 20), base, 0.05, &out); err != nil {
			t.Errorf("improvement rejected: %v", err)
		}
	})
	t.Run("ns regression fails", func(t *testing.T) {
		err := compareBench(benchFixture(1200, 40), base, 0.05, &out)
		if err == nil || !strings.Contains(err.Error(), "ns/step") {
			t.Errorf("20%% ns/step regression accepted: %v", err)
		}
	})
	t.Run("alloc regression fails", func(t *testing.T) {
		err := compareBench(benchFixture(1000, 45), base, 0.05, &out)
		if err == nil || !strings.Contains(err.Error(), "allocs/step") {
			t.Errorf("allocs/step regression accepted: %v", err)
		}
	})
	t.Run("alloc slack absorbs step-count jitter", func(t *testing.T) {
		// 40 -> 42.3 is over 5% relative but inside the +0.5 absolute slack.
		if err := compareBench(benchFixture(1000, 42.3), base, 0.05, &out); err != nil {
			t.Errorf("sub-slack alloc drift rejected: %v", err)
		}
	})
	t.Run("missing heuristic fails", func(t *testing.T) {
		report := benchFixture(1000, 40)
		report.Heuristics[0].Name = "renamed"
		err := compareBench(report, base, 0.05, &out)
		if err == nil || !strings.Contains(err.Error(), "not measured") {
			t.Errorf("dropped heuristic accepted: %v", err)
		}
	})
	t.Run("missing baseline fails", func(t *testing.T) {
		if err := compareBench(benchFixture(1000, 40), "/does/not/exist.json", 0.05, &out); err == nil {
			t.Error("missing baseline accepted")
		}
	})
	t.Run("scale mismatch fails", func(t *testing.T) {
		full := benchFixture(1000, 40)
		full.Scale = "full"
		path := writeBaseline(t, full)
		quick := benchFixture(1000, 40)
		quick.Scale = "quick"
		err := compareBench(quick, path, 0.05, &out)
		if err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("quick run compared against a full baseline: %v", err)
		}
	})
	t.Run("wrong schema fails", func(t *testing.T) {
		bad := benchFixture(1000, 40)
		bad.Schema = "other/v9"
		path := writeBaseline(t, bad)
		if err := compareBench(benchFixture(1000, 40), path, 0.05, &out); err == nil {
			t.Error("wrong-schema baseline accepted")
		}
	})
}

func TestCompareFlagRequiresBench(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-compare", "x.json"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-bench") {
		t.Error("-compare without -bench accepted")
	}
	if err := run([]string{"-quick", "-tol", "-1"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-tol") {
		t.Error("negative -tol accepted")
	}
}
