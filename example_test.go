package adhocga_test

import (
	"context"
	"fmt"

	"adhocga"
)

// Parse a strategy in the paper's notation and query its decisions.
func ExampleParseStrategy() {
	s, err := adhocga.ParseStrategy("010 101 101 111 1")
	if err != nil {
		panic(err)
	}
	fmt.Println("trusted, low-activity source:", s.Decide(adhocga.Trust3, adhocga.ActivityLow))
	fmt.Println("untrusted, low-activity source:", s.Decide(adhocga.Trust0, adhocga.ActivityLow))
	fmt.Println("unknown source:", s.DecideUnknown())
	// Output:
	// trusted, low-activity source: F
	// untrusted, low-activity source: D
	// unknown source: F
}

// Run a fixed-population tournament: 20 unconditional cooperators against
// 5 constantly selfish nodes.
func ExampleRunMix() {
	res, err := adhocga.RunMix(adhocga.MixConfig{
		Groups: []adhocga.MixGroup{{Profile: adhocga.ProfileAllCooperate, Count: 20}},
		CSN:    5,
		Rounds: 50,
		Mode:   adhocga.ShorterPaths(),
		Game:   adhocga.DefaultGameConfig(),
		Seed:   1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("groups:", len(res.Groups))
	fmt.Println("cooperation in range:", res.Cooperation > 0 && res.Cooperation <= 1)
	// Output:
	// groups: 1
	// cooperation in range: true
}

// Evolve strategies in a small CSN-free network for a few generations.
func ExampleEvolve() {
	cfg := adhocga.DefaultEvolutionConfig(adhocga.PaperEnvironments()[:1], adhocga.ShorterPaths(), 42)
	cfg.PopulationSize = 20
	cfg.Eval.TournamentSize = 10
	cfg.Eval.Tournament.Rounds = 10
	cfg.Generations = 3
	res, err := adhocga.Evolve(context.Background(), cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("generations recorded:", len(res.CoopSeries))
	fmt.Println("final strategies:", len(res.FinalStrategies))
	// Output:
	// generations recorded: 3
	// final strategies: 20
}

// Submit a scenario batch as a job on a Session and stream its unified
// event feed — the evolution of ExampleEvolve as a one-scenario job.
func ExampleSession_Submit() {
	session := adhocga.NewSession(adhocga.WithPoolSize(2))
	defer session.Close()

	spec := adhocga.ScenarioSpec{
		Name:           "small",
		Environments:   []adhocga.ScenarioEnv{{CSN: 0}},
		Population:     20,
		TournamentSize: 10,
		Rounds:         10,
		Generations:    3,
		Repetitions:    1,
	}
	job, err := session.Submit(context.Background(), adhocga.ScenariosSpec{
		Runs: []adhocga.ScenarioRun{{Spec: spec, Seed: 42}},
	})
	if err != nil {
		panic(err)
	}
	generations := 0
	for e := range job.Events() {
		if e.Kind == adhocga.KindGeneration {
			generations++
		}
	}
	if err := job.Wait(context.Background()); err != nil {
		panic(err)
	}
	res := job.Result().([]*adhocga.CaseResult)
	fmt.Println("job:", job.ID(), "state:", job.State())
	fmt.Println("generation events:", generations)
	fmt.Println("final strategies:", res[0].Census.Total())
	// Output:
	// job: job-1 state: done
	// generation events: 3
	// final strategies: 20
}
