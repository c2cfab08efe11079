package adhocga

import (
	"context"
	"fmt"

	"adhocga/internal/core"
	"adhocga/internal/experiment"
	"adhocga/internal/island"
	"adhocga/internal/runner"
)

// JobSpec describes one workload to Submit to a Session. There are two
// kinds: ScenariosSpec (a batch of declarative scenarios) and
// LeagueJobSpec (a round-robin over archived champions). The set is
// closed (the run method is unexported): the Session owns scheduling,
// event emission, and cancellation for both.
type JobSpec interface {
	// Kind returns the spec's job-kind tag, carried in the Job handle and
	// the adhocd service's responses.
	Kind() string

	// run executes the workload. It must honor ctx at generation
	// barriers, stream progress through emit, and return the typed
	// result. On cancellation it returns the partial result (nil when
	// none is meaningful) and an error wrapping ctx.Err().
	run(ctx context.Context, s *Session, emit func(Event)) (any, error)
}

// runPooled executes fn on one shared session pool slot, so a league
// counts against the same capacity a batch's replicates do — flooding a
// session with Submit calls cannot run more leagues at once than the pool
// has slots. fn's partial result and original error are preserved on
// cancellation.
func runPooled(ctx context.Context, s *Session, fn func() (any, error)) (any, error) {
	var res any
	var ferr error
	err := s.pool.Run(ctx, 1, func(int) error {
		res, ferr = fn()
		return ferr
	}, runner.Options{})
	if ferr != nil {
		return res, ferr
	}
	return res, err // non-nil only when cancelled before the slot was won
}

// generationEvent adapts a core snapshot to the unified event shape.
func generationEvent(scen, rep int, gs core.GenerationStats) Event {
	return Event{Kind: KindGeneration, Generation: &GenerationEvent{
		Scenario:    scen,
		Rep:         rep,
		Gen:         gs.Generation,
		Coop:        gs.Cooperation,
		MeanEnvCoop: gs.MeanEnvCooperation,
		BestFit:     gs.Fitness.BestFitness,
		MeanFit:     gs.Fitness.MeanFitness,
		Diversity:   gs.Fitness.Diversity,
	}}
}

// islandsEvent adapts an island snapshot to the unified event shape.
func islandsEvent(scen, rep int, gs island.GenerationStats) Event {
	per := make([]IslandPoint, len(gs.Islands))
	for i, st := range gs.Islands {
		per[i] = IslandPoint{BestFit: st.BestFitness, MeanFit: st.MeanFitness, Diversity: st.Diversity}
	}
	return Event{Kind: KindIslands, Islands: &IslandsEvent{
		Scenario:    scen,
		Rep:         rep,
		Gen:         gs.Generation,
		Coop:        gs.Cooperation,
		MeanEnvCoop: gs.MeanEnvCooperation,
		PerIsland:   per,
	}}
}

// checkpointEvent adapts a champion checkpoint to the unified event shape.
func checkpointEvent(scen, rep int, seed uint64, cp core.Checkpoint) Event {
	return Event{Kind: KindCheckpoint, Checkpoint: &CheckpointEvent{
		Scenario: scen,
		Rep:      rep,
		Gen:      cp.Generation,
		Seed:     seed,
		Genome:   cp.Best.Key(),
		Fitness:  cp.Fitness,
		MeanFit:  cp.MeanFitness,
		Coop:     cp.Cooperation,
	}}
}

// eventOptions returns a copy of opts with the session's pool and seed
// policy installed and the observation hooks chained into event emission
// (user-supplied hooks, if any, still fire first). Every scenario batch
// goes through here, so WithDefaultSeed applies uniformly whether the job
// arrives via Submit or the HTTP service.
func eventOptions(opts RunOptions, s *Session, emit func(Event)) RunOptions {
	if opts.Pool == nil {
		opts.Pool = s.pool
	}
	if opts.Seed == 0 {
		opts.Seed = s.seed
	}
	userRep := opts.OnReplicate
	opts.OnReplicate = func(done, total int) {
		if userRep != nil {
			userRep(done, total)
		}
		emit(Event{Kind: KindReplicate, Replicate: &ReplicateEvent{Done: done, Total: total}})
	}
	userGen := opts.OnGeneration
	opts.OnGeneration = func(scen, rep int, gs core.GenerationStats) {
		if userGen != nil {
			userGen(scen, rep, gs)
		}
		emit(generationEvent(scen, rep, gs))
	}
	userIsl := opts.OnIslandGeneration
	opts.OnIslandGeneration = func(scen, rep int, gs island.GenerationStats) {
		if userIsl != nil {
			userIsl(scen, rep, gs)
		}
		emit(islandsEvent(scen, rep, gs))
	}
	userChurn := opts.OnChurn
	opts.OnChurn = func(scen, rep, gen int) {
		if userChurn != nil {
			userChurn(scen, rep, gen)
		}
		emit(Event{Kind: KindChurn, Churn: &ChurnEvent{Scenario: scen, Rep: rep, Gen: gen}})
	}
	userCp := opts.OnCheckpoint
	opts.OnCheckpoint = func(scen, rep int, seed uint64, cp core.Checkpoint) {
		if userCp != nil {
			userCp(scen, rep, seed, cp)
		}
		emit(checkpointEvent(scen, rep, seed, cp))
	}
	return opts
}

// ScenariosSpec runs a batch of declarative scenarios. Zero Defaults
// falls back to the session default scale. Result type: []*CaseResult, in
// input order. Events: KindGeneration / KindIslands per replicate
// generation, KindChurn at dynamics barriers, KindCheckpoint at champion
// checkpoints, KindReplicate per finished replicate.
type ScenariosSpec struct {
	Runs     []ScenarioRun
	Defaults Scale
	Opts     RunOptions
}

// Kind returns "scenarios".
func (ScenariosSpec) Kind() string { return "scenarios" }

func (sp ScenariosSpec) run(ctx context.Context, s *Session, emit func(Event)) (any, error) {
	if len(sp.Runs) == 0 {
		return nil, fmt.Errorf("adhocga: scenarios job has no scenarios")
	}
	return experiment.RunScenariosContext(ctx, sp.Runs, s.scaleOr(sp.Defaults), eventOptions(sp.Opts, s, emit))
}
