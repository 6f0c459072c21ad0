package obspure

import (
	"strings"
	"testing"

	"ocd/internal/analysis/analyzertest"
)

// setSim points the analyzer at the fixture's sim stand-in for one test
// and restores the real default afterwards.
func setSim(t *testing.T, v string) {
	t.Helper()
	old := simFlag
	if err := Analyzer.Flags.Set("sim", v); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { simFlag = old })
}

func TestObsPure(t *testing.T) {
	setSim(t, "sim")
	analyzertest.Run(t, "testdata", Analyzer, "a")
}

func TestNegativeFixture(t *testing.T) {
	setSim(t, "sim")
	// A // want on a non-implementing type's state write must stay
	// unmatched, and the harness must surface that as a mismatch.
	probs := analyzertest.Problems(t, "testdata", Analyzer, "neg")
	if len(probs) != 1 || !strings.Contains(probs[0], "no diagnostic matched") {
		t.Fatalf("want exactly one unmatched-expectation problem, got %q", probs)
	}
}

func TestDefaultContractPackage(t *testing.T) {
	if simFlag != "ocd/internal/sim" {
		t.Fatalf("default -sim = %q; the analyzer must target the real kernel package", simFlag)
	}
}

func TestHaveCountsIsReadonly(t *testing.T) {
	// HaveCounts and Holders materialize lazy caches but cannot change the
	// schedule; dropping either from the read-only list would flag
	// sanctioned uses (StepCollector reads HaveCounts) and push people
	// toward suppressions.
	for _, want := range []string{"HaveCounts", "Holders"} {
		found := false
		for _, name := range defaultReadonly {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missing from defaultReadonly", want)
		}
	}
}
