package adhocga

import (
	"context"
	"strings"
	"testing"
)

// runBatch runs one scenario batch on a fresh session.
func runBatch(runs []ScenarioRun, sc Scale, opts RunOptions) ([]*CaseResult, error) {
	s := NewSession()
	defer s.Close()
	res, err := submitWait(s, ScenariosSpec{Runs: runs, Defaults: sc, Opts: opts})
	out, _ := res.([]*CaseResult)
	return out, err
}

func TestFacadeStrategyRoundtrip(t *testing.T) {
	s, err := ParseStrategy("010 101 101 111 1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Decide(Trust3, ActivityLow) != Forward {
		t.Error("facade Decide wrong")
	}
	if s.DecideUnknown() != Forward {
		t.Error("facade DecideUnknown wrong")
	}
	if AllForward().Cooperativeness() != 1 || AllDiscard().Cooperativeness() != 0 {
		t.Error("facade extremes wrong")
	}
	a, b := RandomStrategy(5), RandomStrategy(5)
	if !a.Equal(b) {
		t.Error("RandomStrategy not deterministic per seed")
	}
}

func TestFacadeEnvironmentsAndCases(t *testing.T) {
	if len(PaperEnvironments()) != 4 {
		t.Error("PaperEnvironments wrong")
	}
	if len(Cases()) != 4 {
		t.Error("Cases wrong")
	}
	c, err := CaseByID(2)
	if err != nil || c.ID != 2 {
		t.Errorf("CaseByID: %v, %v", c, err)
	}
	if ShorterPaths().Name != "SP" || LongerPaths().Name != "LP" {
		t.Error("path modes wrong")
	}
	if ScalePaper.Generations != 500 || ScaleSmoke.Generations <= 0 {
		t.Error("scales wrong")
	}
}

func TestFacadeEvolveSmoke(t *testing.T) {
	cfg := DefaultEvolutionConfig(PaperEnvironments()[:1], ShorterPaths(), 3)
	cfg.PopulationSize = 20
	cfg.Eval.TournamentSize = 10
	cfg.Eval.Tournament.Rounds = 10
	cfg.Generations = 3
	var hooks int
	cfg.OnGeneration = func(GenerationStats) { hooks++ }
	res, err := Evolve(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoopSeries) != 3 || hooks != 3 {
		t.Errorf("series %d, hooks %d", len(res.CoopSeries), hooks)
	}
	if len(res.FinalStrategies) != 20 {
		t.Errorf("%d final strategies", len(res.FinalStrategies))
	}
}

func TestFacadeRunMixSmoke(t *testing.T) {
	res, err := RunMix(MixConfig{
		Groups: []MixGroup{{Profile: ProfileAllCooperate, Count: 10}},
		CSN:    2,
		Rounds: 10,
		Mode:   ShorterPaths(),
		Game:   DefaultGameConfig(),
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cooperation <= 0 || res.Cooperation > 1 {
		t.Errorf("cooperation %v", res.Cooperation)
	}
	if len(res.Groups) != 1 || res.Groups[0].Name != ProfileAllCooperate.Name {
		t.Errorf("groups %+v", res.Groups)
	}
}

func TestFacadeScenarioSmoke(t *testing.T) {
	if len(ScenarioFamilies()) < 4 {
		t.Error("scenario families missing")
	}
	fam, err := ScenarioFamilyByName("table4")
	if err != nil || len(fam.Specs()) != 4 {
		t.Errorf("table4 family: %+v, %v", fam, err)
	}
	specs, err := LoadScenarios(strings.NewReader(
		`{"name":"facade","environments":[{"csn":3}],"repetitions":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := SaveScenarios(&buf, specs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"facade"`) {
		t.Errorf("saved spec missing name: %s", buf.String())
	}
	sc := Scale{Name: "tiny", Generations: 2, Rounds: 10, Repetitions: 2}
	results, err := runBatch([]ScenarioRun{{Spec: specs[0], Seed: 8}}, sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0].CoopMean) != 2 || results[0].FinalCoop.N != 2 {
		t.Errorf("scenario result shape wrong: %+v", results[0])
	}
}

// TestFacadeRunCaseSmoke runs Table 4 case 1 the way the facade does: as
// the table4 registry scenario in a one-scenario batch.
func TestFacadeRunCaseSmoke(t *testing.T) {
	fam, err := ScenarioFamilyByName("table4")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scale{Name: "tiny", Generations: 2, Rounds: 10, Repetitions: 2}
	results, err := runBatch([]ScenarioRun{{Spec: fam.Specs()[0], Seed: 4}}, sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if len(res.CoopMean) != 2 || res.Census.Total() != 200 {
		t.Errorf("result shape wrong: %d gens, census %d", len(res.CoopMean), res.Census.Total())
	}
}
