package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
	"time"
)

// End-to-end smoke tests: run the binary's whole main path (flag parsing,
// experiment execution, report rendering) at a tiny budget and check the
// output is deterministic byte for byte at a fixed seed.

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRunCaseByteIdenticalAtFixedSeed(t *testing.T) {
	args := []string{"-case", "1", "-generations", "2", "-rounds", "10", "-reps", "2", "-seed", "7", "-q"}
	code1, out1, err1 := runCLI(t, args...)
	if code1 != 0 {
		t.Fatalf("exit %d, stderr: %s", code1, err1)
	}
	code2, out2, _ := runCLI(t, args...)
	if code2 != 0 {
		t.Fatalf("second run exit %d", code2)
	}
	if out1 != out2 {
		t.Errorf("fixed-seed output differs between runs:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	if !strings.Contains(out1, "final cooperation:") {
		t.Errorf("output missing the summary line:\n%s", out1)
	}
}

// TestRunCaseMatchesGolden pins the stdout of a -case run byte for byte
// against testdata/case3_seed7.golden. The golden was recorded from a
// direct run of the case (experiment.RunCaseContext), so it also pins that
// the Table 4 scenario -case runs is byte-identical to the case itself.
func TestRunCaseMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/case3_seed7.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t, "-case", "3", "-generations", "2", "-rounds", "10", "-reps", "2", "-seed", "7", "-q")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if out != string(want) {
		t.Errorf("-case 3 output differs from the golden:\n--- got\n%s\n--- want\n%s", out, want)
	}
}

// TestRunCaseSeedZeroIgnoresSpecFlags pins that a spec flag set to its
// paper default does not change which run -case makes, at -seed 0 too.
func TestRunCaseSeedZeroIgnoresSpecFlags(t *testing.T) {
	args := []string{"-case", "1", "-generations", "2", "-rounds", "10", "-reps", "2", "-seed", "0", "-q"}
	code1, plain, err1 := runCLI(t, args...)
	if code1 != 0 {
		t.Fatalf("exit %d, stderr: %s", code1, err1)
	}
	code2, withPop, err2 := runCLI(t, append(args, "-population", "100")...)
	if code2 != 0 {
		t.Fatalf("-population 100: exit %d, stderr: %s", code2, err2)
	}
	if plain != withPop {
		t.Errorf("-population 100 changed the run:\n--- plain\n%s\n--- -population 100\n%s", plain, withPop)
	}
}

func TestRunDynamicsFlagsEndToEnd(t *testing.T) {
	code, out, errOut := runCLI(t,
		"-case", "1", "-generations", "4", "-rounds", "10", "-reps", "1", "-seed", "3", "-q",
		"-churn", "0.25", "-churn-interval", "2", "-rewire", "0.5",
		"-free-riders", "2", "-liars", "2", "-onoff", "2", "-gossip", "5")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"recovery after churn", "byzantine cohort: 2 free-riders, 2 liars, 2 on-off"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunScenarioFamilyEndToEnd(t *testing.T) {
	code, out, errOut := runCLI(t,
		"-scenario", "churn 20% every 5 gens",
		"-generations", "6", "-rounds", "10", "-reps", "1", "-seed", "2", "-q")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "recovery after churn") {
		t.Errorf("churn scenario produced no recovery table:\n%s", out)
	}
}

func TestListScenariosIncludesDynamicsFamilies(t *testing.T) {
	code, out, _ := runCLI(t, "-list-scenarios")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, fam := range []string{"churn-sweep", "adversary-grid", "table4", "csn-grid"} {
		if !strings.Contains(out, fam) {
			t.Errorf("family %q missing from listing", fam)
		}
	}
}

// TestFlagValidationRejectsNonsense pins the fixes for the silent
// flag-validation gaps: values that used to be ignored (an explicit
// -islands 0 fell back to a serial run) or to surface as a confusing
// late error must be rejected up front with a clear message.
func TestFlagValidationRejectsNonsense(t *testing.T) {
	cases := []struct {
		args []string
		frag string // expected fragment of the error message
	}{
		{[]string{"-islands", "0"}, "islands must be >= 1"},
		{[]string{"-islands", "-2"}, "islands must be >= 1"},
		{[]string{"-population", "0"}, "population must be >= 1"},
		{[]string{"-population", "-5"}, "population must be >= 1"},
		{[]string{"-reps", "0"}, "reps must be >= 1"},
		{[]string{"-generations", "-1"}, "generations must be >= 1"},
		{[]string{"-rounds", "0"}, "rounds must be >= 1"},
		{[]string{"-islands", "2", "-migrants", "0"}, "migrants must be >= 1"},
		{[]string{"-islands", "2", "-migrants", "-1"}, "migrants must be >= 1"},
		{[]string{"-islands", "2", "-migration-interval", "-3"}, "migration-interval must be >= 1"},
		{[]string{"-churn", "1.5"}, "churn must be in [0,1]"},
		{[]string{"-churn", "-0.1"}, "churn must be in [0,1]"},
		{[]string{"-churn", "0.1", "-churn-interval", "0"}, "churn-interval must be >= 1"},
		{[]string{"-rewire", "2"}, "rewire must be in [0,1]"},
		{[]string{"-free-riders", "-1"}, "free-riders must be >= 0"},
		{[]string{"-gossip", "0"}, "gossip must be >= 1"},
		{[]string{"-topology", "ring"}, "-topology/-migration-interval/-migrants need -islands"},
		{[]string{"-case", "9"}, "no evaluation case"},
	}
	for _, tc := range cases {
		code, _, errOut := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", tc.args, code, errOut)
			continue
		}
		if !strings.Contains(errOut, tc.frag) {
			t.Errorf("args %v: stderr %q missing %q", tc.args, errOut, tc.frag)
		}
	}
}

// TestLiarsWithoutGossipRejected pins the liar/gossip interaction: liars
// only attack through gossip, so seating them without a channel would
// silently *help* cooperation while being reported as adversaries. The
// check lives in scenario validation (a -scenario file may supply the
// gossip block itself), so it surfaces as a run error, not a flag error.
func TestLiarsWithoutGossipRejected(t *testing.T) {
	code, _, errOut := runCLI(t, "-case", "1", "-liars", "3",
		"-generations", "2", "-rounds", "10", "-reps", "1", "-q")
	if code == 0 {
		t.Fatal("liars without gossip accepted")
	}
	if !strings.Contains(errOut, "gossip liars but gossip is disabled") {
		t.Errorf("stderr %q missing the liar/gossip explanation", errOut)
	}
}

// TestInterruptEmitsPartialSeries pins the SIGINT behavior: a cancelled
// run exits 130 with the partial cooperation series and a clear
// "interrupted at generation N" marker instead of dying mid-write.
func TestInterruptEmitsPartialSeries(t *testing.T) {
	// Cancel shortly after the run starts; the job stops at its next
	// generation barrier long before the million-generation budget.
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"-case", "1", "-generations", "1000000", "-rounds", "10",
		"-reps", "1", "-seed", "6", "-q"}, &stdout, &stderr)
	if code != interruptedExit {
		t.Fatalf("exit %d, want %d (stderr: %s)", code, interruptedExit, stderr.String())
	}
	if !strings.Contains(stdout.String(), "interrupted") {
		t.Errorf("stdout missing the interruption marker:\n%s", stdout.String())
	}
}

// TestHelpExitsZero pins that -h is a successful invocation, as it was
// before the testable-seam refactor replaced flag.ExitOnError.
func TestHelpExitsZero(t *testing.T) {
	code, _, errOut := runCLI(t, "-h")
	if code != 0 {
		t.Errorf("-h exit %d, want 0", code)
	}
	if !strings.Contains(errOut, "-scenario") {
		t.Errorf("usage text missing from stderr:\n%s", errOut)
	}
}

// TestIslandsOfOneStillRuns pins that the -islands validation only rejects
// nonsense: the legitimate degenerate value 1 runs the serial engine.
func TestIslandsOfOneStillRuns(t *testing.T) {
	code, out, errOut := runCLI(t,
		"-case", "1", "-generations", "2", "-rounds", "10", "-reps", "1", "-seed", "4", "-q",
		"-islands", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "final cooperation:") {
		t.Errorf("output missing summary:\n%s", out)
	}
}
