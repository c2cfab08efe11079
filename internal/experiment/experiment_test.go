package experiment

import (
	"context"
	"strings"
	"testing"
)

func TestCasesMatchTable4(t *testing.T) {
	cases := Cases()
	if len(cases) != 4 {
		t.Fatalf("%d cases", len(cases))
	}
	// Case 1: only TE1 (0 CSN), SP.
	if len(cases[0].Environments) != 1 || cases[0].Environments[0].CSN != 0 || cases[0].Mode.Name != "SP" {
		t.Errorf("case 1 = %+v", cases[0])
	}
	// Case 2: only the 30-CSN environment, SP.
	if len(cases[1].Environments) != 1 || cases[1].Environments[0].CSN != 30 || cases[1].Mode.Name != "SP" {
		t.Errorf("case 2 = %+v", cases[1])
	}
	// Cases 3 and 4: all four environments; SP vs LP.
	if len(cases[2].Environments) != 4 || cases[2].Mode.Name != "SP" {
		t.Errorf("case 3 = %+v", cases[2])
	}
	if len(cases[3].Environments) != 4 || cases[3].Mode.Name != "LP" {
		t.Errorf("case 4 = %+v", cases[3])
	}
}

func TestCaseByID(t *testing.T) {
	for id := 1; id <= 4; id++ {
		c, err := CaseByID(id)
		if err != nil || c.ID != id {
			t.Errorf("CaseByID(%d) = %+v, %v", id, c, err)
		}
	}
	if _, err := CaseByID(5); err == nil {
		t.Error("CaseByID(5) succeeded")
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"smoke", "default", "paper"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Errorf("ScaleByName(%q) = %+v, %v", name, sc, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestPaperScaleMatchesSection61(t *testing.T) {
	if PaperScale.Generations != 500 || PaperScale.Rounds != 300 || PaperScale.Repetitions != 60 {
		t.Errorf("paper scale = %+v", PaperScale)
	}
}

func TestRunCaseSmoke(t *testing.T) {
	c, err := CaseByID(1)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scale{Name: "tiny", Generations: 3, Rounds: 20, Repetitions: 3}
	res, err := RunCaseContext(context.Background(), c, sc, Options{Seed: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoopMean) != 3 {
		t.Errorf("coop series length %d", len(res.CoopMean))
	}
	if res.FinalCoop.N != 3 {
		t.Errorf("final coop sample size %d", res.FinalCoop.N)
	}
	if res.Census.Total() != 3*100 {
		t.Errorf("census total %d, want 300", res.Census.Total())
	}
	if len(res.PerEnv) != 1 || res.PerEnv[0].Name != "TE1" {
		t.Errorf("per-env = %+v", res.PerEnv)
	}
	for g, v := range res.CoopMean {
		if v < 0 || v > 1 {
			t.Errorf("coop[%d] = %v", g, v)
		}
	}
	// Case 1 has no CSN: every path is CSN-free and no request can be
	// rejected by a CSN.
	if res.PerEnv[0].CSNFree.Mean != 1 {
		t.Errorf("CSN-free fraction %v in CSN-free case", res.PerEnv[0].CSNFree.Mean)
	}
	if res.FromNormal.RejectedBySelfish != 0 || res.FromCSN.Total() != 0 {
		t.Errorf("impossible request counts: %+v / %+v", res.FromNormal, res.FromCSN)
	}
}

func TestRunCaseDeterministicAcrossParallelism(t *testing.T) {
	c, err := CaseByID(2)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scale{Name: "tiny", Generations: 2, Rounds: 15, Repetitions: 4}
	seq, err := RunCaseContext(context.Background(), c, sc, Options{Seed: 9, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCaseContext(context.Background(), c, sc, Options{Seed: 9, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for g := range seq.CoopMean {
		if seq.CoopMean[g] != par.CoopMean[g] {
			t.Fatalf("parallelism changed results at generation %d: %v vs %v",
				g, seq.CoopMean[g], par.CoopMean[g])
		}
	}
	if seq.FromNormal != par.FromNormal || seq.FromCSN != par.FromCSN {
		t.Error("parallelism changed request counts")
	}
}

func TestRunCaseProgressCallback(t *testing.T) {
	c, _ := CaseByID(1)
	sc := Scale{Name: "tiny", Generations: 2, Rounds: 10, Repetitions: 3}
	var calls int
	var last int
	_, err := RunCaseContext(context.Background(), c, sc, Options{Seed: 3, Parallelism: 1, OnReplicate: func(done, total int) {
		calls++
		last = done
		if total != 3 {
			t.Errorf("total = %d", total)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || last != 3 {
		t.Errorf("callback calls=%d last=%d", calls, last)
	}
}

func TestRunCaseRejectsZeroReps(t *testing.T) {
	c, _ := CaseByID(1)
	if _, err := RunCaseContext(context.Background(), c, Scale{Name: "bad"}, Options{}); err == nil {
		t.Error("zero repetitions accepted")
	}
}

func smokeResults(t *testing.T) map[int]*CaseResult {
	t.Helper()
	sc := Scale{Name: "tiny", Generations: 2, Rounds: 15, Repetitions: 2}
	out := make(map[int]*CaseResult)
	for id := 1; id <= 4; id++ {
		c, err := CaseByID(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunCaseContext(context.Background(), c, sc, Options{Seed: uint64(id)})
		if err != nil {
			t.Fatal(err)
		}
		out[id] = res
	}
	return out
}

func TestTableRendering(t *testing.T) {
	results := smokeResults(t)
	fig4 := Fig4Table(results).Render()
	for _, want := range []string{"case 1", "case 4", "97.0%", "19.0%"} {
		if !strings.Contains(fig4, want) {
			t.Errorf("Fig4 table missing %q:\n%s", want, fig4)
		}
	}
	chart := Fig4Chart(results)
	if !strings.Contains(chart, "case 1") || !strings.Contains(chart, "case 4") {
		t.Errorf("Fig4 chart missing series:\n%s", chart)
	}
	t5 := Table5(results[3], results[4]).Render()
	for _, want := range []string{"TE1", "TE4", "99.0%", "66.0%"} {
		if !strings.Contains(t5, want) {
			t.Errorf("Table 5 missing %q:\n%s", want, t5)
		}
	}
	t6 := Table6(results[3], results[4]).Render()
	for _, want := range []string{"accepted", "rejected by NP", "rejected by CSN", "77.0%"} {
		if !strings.Contains(t6, want) {
			t.Errorf("Table 6 missing %q:\n%s", want, t6)
		}
	}
	t7 := Table7(results[3], results[4]).Render()
	if !strings.Contains(t7, "1") || len(strings.Split(t7, "\n")) < 7 {
		t.Errorf("Table 7 too small:\n%s", t7)
	}
	t8 := Table8(results[3]).Render()
	if !strings.Contains(t8, "trust 3") {
		t.Errorf("Table 8 missing trust columns:\n%s", t8)
	}
	t9 := Table9(results[4]).Render()
	if !strings.Contains(t9, "trust 0") {
		t.Errorf("Table 9 missing trust columns:\n%s", t9)
	}
}

func TestTablesHandleNilResults(t *testing.T) {
	// Partial runs must not panic.
	_ = Table5(nil, nil).Render()
	_ = Table6(nil, nil).Render()
	_ = Table7(nil, nil).Render()
	_ = Table8(nil).Render()
	_ = Table9(nil).Render()
	_ = Fig4Table(map[int]*CaseResult{}).Render()
	_ = Fig4Chart(map[int]*CaseResult{})
}

func TestPaperFig4FinalIsCopy(t *testing.T) {
	m := PaperFig4Final()
	m[1] = 0
	if PaperFig4Final()[1] != 0.97 {
		t.Error("PaperFig4Final exposed internal map")
	}
}
