package experiment

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"adhocga/internal/scenario"
)

func tinyScale() Scale {
	return Scale{Name: "tiny", Generations: 2, Rounds: 15, Repetitions: 2}
}

// caseResultFingerprint reduces a CaseResult to comparable plain data (the
// census and collector hold maps/pointers, so compare their JSON form).
func caseResultFingerprint(t *testing.T, res *CaseResult) string {
	t.Helper()
	type fp struct {
		CoopMean, CoopStd, MeanEnvCoopMean []float64
		Final, FinalEnv                    any
		PerEnv                             []EnvSummary
		FromNormal, FromCSN                any
		Top                                any
	}
	b, err := json.Marshal(fp{
		CoopMean: res.CoopMean, CoopStd: res.CoopStd, MeanEnvCoopMean: res.MeanEnvCoopMean,
		Final: res.FinalCoop, FinalEnv: res.FinalMeanEnvCoop,
		PerEnv:     res.PerEnv,
		FromNormal: res.FromNormal, FromCSN: res.FromCSN,
		Top: res.Census.Top(1 << 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunScenariosMatchesRunCase(t *testing.T) {
	// A batched Table 4 scenario must equal the equivalent standalone
	// RunCase bit-for-bit: batching is pure scheduling.
	specs := scenario.Table4()
	runs := []ScenarioRun{
		{Spec: specs[0], Seed: 11},
		{Spec: specs[2], Seed: 13},
	}
	batched, err := RunScenariosContext(context.Background(), runs, tinyScale(), Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, caseID := range []int{1, 3} {
		c, err := CaseByID(caseID)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := RunCaseContext(context.Background(), c, tinyScale(), Options{Seed: runs[i].Seed, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := caseResultFingerprint(t, batched[i]), caseResultFingerprint(t, alone); got != want {
			t.Errorf("case %d: batched result differs from standalone RunCase", caseID)
		}
		if batched[i].Case.ID != caseID || batched[i].Case.Name != c.Name {
			t.Errorf("case identity lost: %+v", batched[i].Case)
		}
	}
}

func TestRunScenariosDeterministicAcrossParallelism(t *testing.T) {
	runs := []ScenarioRun{
		{Spec: scenario.Spec{Name: "a", Environments: []scenario.EnvSpec{{CSN: 0}}}, Seed: 3},
		{Spec: scenario.Spec{Name: "b", Environments: []scenario.EnvSpec{{CSN: 10}}, PathMode: "LP"}, Seed: 4},
		{Spec: scenario.Spec{Name: "c", Environments: []scenario.EnvSpec{{CSN: 30}}, Repetitions: 3}, Seed: 5},
	}
	seq, err := RunScenariosContext(context.Background(), runs, tinyScale(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunScenariosContext(context.Background(), runs, tinyScale(), Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if caseResultFingerprint(t, seq[i]) != caseResultFingerprint(t, par[i]) {
			t.Errorf("scenario %q: parallelism changed the result", runs[i].Spec.Name)
		}
	}
	if seq[2].FinalCoop.N != 3 {
		t.Errorf("spec-pinned repetitions ignored: N = %d", seq[2].FinalCoop.N)
	}
}

func TestRunScenariosSpecOverridesReachEngine(t *testing.T) {
	spec := scenario.Spec{
		Name:           "small world",
		Environments:   []scenario.EnvSpec{{CSN: 4}},
		Population:     30,
		TournamentSize: 20,
		Generations:    2,
		Rounds:         10,
		Repetitions:    2,
	}
	res, err := RunScenariosContext(context.Background(), []ScenarioRun{{Spec: spec, Seed: 9}}, tinyScale(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Census.Total(); got != 2*30 {
		t.Errorf("census total %d, want 60 (population override lost)", got)
	}
	if len(res[0].CoopMean) != 2 {
		t.Errorf("%d generations", len(res[0].CoopMean))
	}
	if res[0].Case.Name != "small world" || res[0].PerEnv[0].Name != "CSN4" {
		t.Errorf("presentation fields wrong: %+v", res[0].Case)
	}
}

func TestRunScenariosPinnedSeedWins(t *testing.T) {
	spec := scenario.Spec{Name: "pinned", Environments: []scenario.EnvSpec{{CSN: 0}}, Seed: 77}
	a, err := RunScenariosContext(context.Background(), []ScenarioRun{{Spec: spec, Seed: 1}}, tinyScale(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenariosContext(context.Background(), []ScenarioRun{{Spec: spec, Seed: 2}}, tinyScale(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if caseResultFingerprint(t, a[0]) != caseResultFingerprint(t, b[0]) {
		t.Error("pinned scenario seed did not override the fallback seed")
	}
}

func TestRunScenariosOptionsSeedIsBatchFallback(t *testing.T) {
	spec := func(name string) scenario.Spec {
		return scenario.Spec{Name: name, Environments: []scenario.EnvSpec{{CSN: 0}}}
	}
	runs := []ScenarioRun{{Spec: spec("a")}, {Spec: spec("b")}}
	first, err := RunScenariosContext(context.Background(), runs, tinyScale(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Unpinned scenarios in one batch must not share replicate streams.
	if caseResultFingerprint(t, first[0]) == caseResultFingerprint(t, first[1]) {
		t.Error("two unpinned scenarios produced identical results")
	}
	// The batch seed must matter...
	other, err := RunScenariosContext(context.Background(), runs, tinyScale(), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if caseResultFingerprint(t, first[0]) == caseResultFingerprint(t, other[0]) {
		t.Error("changing Options.Seed did not change unpinned scenario results")
	}
	// ...and be reproducible.
	again, err := RunScenariosContext(context.Background(), runs, tinyScale(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if caseResultFingerprint(t, first[i]) != caseResultFingerprint(t, again[i]) {
			t.Errorf("scenario %d not reproducible for a fixed batch seed", i)
		}
	}
	// Pinning one run's seed must not shift its neighbor's stream.
	pinned := []ScenarioRun{{Spec: spec("a"), Seed: 999}, {Spec: spec("b")}}
	mixed, err := RunScenariosContext(context.Background(), pinned, tinyScale(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if caseResultFingerprint(t, mixed[1]) != caseResultFingerprint(t, first[1]) {
		t.Error("pinning scenario 0's seed changed scenario 1's results")
	}
}

func TestRunScenariosRejectsBadSpecs(t *testing.T) {
	bad := []ScenarioRun{{Spec: scenario.Spec{Name: "no envs"}}}
	if _, err := RunScenariosContext(context.Background(), bad, tinyScale(), Options{}); err == nil {
		t.Error("invalid spec accepted")
	}
	impossible := []ScenarioRun{{Spec: scenario.Spec{
		Name:         "csn over tournament size",
		Environments: []scenario.EnvSpec{{CSN: 60}},
	}}}
	if _, err := RunScenariosContext(context.Background(), impossible, tinyScale(), Options{}); err == nil {
		t.Error("impossible spec accepted")
	}
}

func TestRunScenariosProgressSpansBatch(t *testing.T) {
	runs := []ScenarioRun{
		{Spec: scenario.Spec{Name: "a", Environments: []scenario.EnvSpec{{CSN: 0}}}, Seed: 1},
		{Spec: scenario.Spec{Name: "b", Environments: []scenario.EnvSpec{{CSN: 0}}, Repetitions: 3}, Seed: 2},
	}
	var calls, last int
	_, err := RunScenariosContext(context.Background(), runs, tinyScale(), Options{Parallelism: 1, OnReplicate: func(done, total int) {
		calls++
		last = done
		if total != 5 { // 2 + 3 replicates flattened into one queue
			t.Errorf("total = %d, want 5", total)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 || last != 5 {
		t.Errorf("calls=%d last=%d", calls, last)
	}
}

func TestRunScenariosEmptyBatch(t *testing.T) {
	out, err := RunScenariosContext(context.Background(), nil, tinyScale(), Options{})
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %v", out, err)
	}
}

func TestDeepEqualAcrossParallelismFullStructure(t *testing.T) {
	// Beyond the fingerprint: the raw series slices must be deeply equal.
	c, err := CaseByID(2)
	if err != nil {
		t.Fatal(err)
	}
	sc := tinyScale()
	a, err := RunCaseContext(context.Background(), c, sc, Options{Seed: 21, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCaseContext(context.Background(), c, sc, Options{Seed: 21, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.CoopMean, b.CoopMean) || !reflect.DeepEqual(a.CoopStd, b.CoopStd) ||
		!reflect.DeepEqual(a.MeanEnvCoopMean, b.MeanEnvCoopMean) || !reflect.DeepEqual(a.PerEnv, b.PerEnv) {
		t.Error("parallelism changed aggregate series")
	}
}
