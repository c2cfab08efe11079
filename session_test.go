package adhocga

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"adhocga/internal/core"
	"adhocga/internal/experiment"
)

// smallConfig is a seconds-scale evolution configuration for session
// tests.
func smallConfig(gens int, seed uint64) EvolutionConfig {
	cfg := DefaultEvolutionConfig(PaperEnvironments()[:1], ShorterPaths(), seed)
	cfg.PopulationSize = 20
	cfg.Eval.TournamentSize = 10
	cfg.Eval.Tournament.Rounds = 10
	cfg.Generations = gens
	return cfg
}

// smallScenario is smallConfig as a declarative scenario: one CSN-free
// environment, 20 strategies, 10-node tournaments of 10 rounds, one
// replicate.
func smallScenario(gens int) ScenarioSpec {
	return ScenarioSpec{
		Name:           "evolve",
		Environments:   []ScenarioEnv{{CSN: 0}},
		Population:     20,
		TournamentSize: 10,
		Rounds:         10,
		Generations:    gens,
		Repetitions:    1,
	}
}

// smallJob is a seconds-scale one-scenario batch for session tests.
func smallJob(gens int, seed uint64) ScenariosSpec {
	return ScenariosSpec{Runs: []ScenarioRun{{Spec: smallScenario(gens), Seed: seed}}}
}

// submitWait submits spec to s and returns the job's result once it is
// terminal.
func submitWait(s *Session, spec JobSpec) (any, error) {
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	err = j.Wait(context.Background())
	return j.Result(), err
}

// drain collects a job's full event stream.
func drain(t *testing.T, j *Job) []Event {
	t.Helper()
	var out []Event
	for e := range j.Events() {
		out = append(out, e)
	}
	return out
}

// TestEvolveBitIdenticalToEngine pins that the plain Evolve function adds
// nothing to the bare engine: same configuration, same numbers.
func TestEvolveBitIdenticalToEngine(t *testing.T) {
	engine, err := core.New(smallConfig(4, 11))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := engine.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	viaEvolve, err := Evolve(context.Background(), smallConfig(4, 11))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.CoopSeries, viaEvolve.CoopSeries) {
		t.Errorf("Evolve diverged from the engine:\nengine: %v\nEvolve: %v", direct.CoopSeries, viaEvolve.CoopSeries)
	}
}

func TestSubmitEvolveStreamsGenerationEvents(t *testing.T) {
	s := NewSession()
	defer s.Close()
	const gens = 4
	j, err := s.Submit(context.Background(), smallJob(gens, 7))
	if err != nil {
		t.Fatal(err)
	}
	events := drain(t, j)
	var genEvents int
	for i, e := range events {
		if e.Seq != i || e.Job != j.ID() {
			t.Errorf("event %d has seq %d job %q", i, e.Seq, e.Job)
		}
		if e.Kind == KindGeneration {
			if e.Generation == nil || e.Generation.Gen != genEvents {
				t.Errorf("generation event %d malformed: %+v", genEvents, e.Generation)
			}
			genEvents++
		}
	}
	if genEvents != gens {
		t.Errorf("%d generation events, want %d", genEvents, gens)
	}
	last := events[len(events)-1]
	if last.Kind != KindDone || last.Done == nil || last.Done.State != JobDone {
		t.Errorf("terminal event wrong: %+v", last)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Result().([]*CaseResult); !ok {
		t.Errorf("result type %T", j.Result())
	}
	if j.State() != JobDone {
		t.Errorf("state %s", j.State())
	}
}

func TestSubmitScenariosStreamsReplicateAndGenerationEvents(t *testing.T) {
	s := NewSession(WithPoolSize(1))
	defer s.Close()
	spec, err := ScenarioFamilyByName("table4")
	if err != nil {
		t.Fatal(err)
	}
	runs := []ScenarioRun{{Spec: spec.Specs()[0], Seed: 5}}
	sc := Scale{Name: "test", Generations: 2, Rounds: 10, Repetitions: 2}
	j, err := s.Submit(context.Background(), ScenariosSpec{Runs: runs, Defaults: sc, Opts: RunOptions{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	events := drain(t, j)
	var reps, gens int
	for _, e := range events {
		switch e.Kind {
		case KindReplicate:
			reps++
			if e.Replicate.Total != 2 {
				t.Errorf("replicate total %d", e.Replicate.Total)
			}
		case KindGeneration:
			gens++
		}
	}
	if reps != 2 || gens != 4 {
		t.Errorf("replicate events %d (want 2), generation events %d (want 4)", reps, gens)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, ok := j.Result().([]*CaseResult)
	if !ok || len(res) != 1 {
		t.Fatalf("result %T", j.Result())
	}
	// The session path must agree with the direct batch bit for bit.
	legacy, err := experiment.RunScenariosContext(context.Background(), runs, sc, RunOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res[0].CoopMean, legacy[0].CoopMean) {
		t.Errorf("session scenario run diverged from legacy path")
	}
}

func TestSubmitIslandsStreamsIslandEvents(t *testing.T) {
	s := NewSession()
	defer s.Close()
	spec := smallScenario(3)
	spec.Islands = &ScenarioIslands{Count: 2, Interval: 2}
	j, err := s.Submit(context.Background(), ScenariosSpec{Runs: []ScenarioRun{{Spec: spec, Seed: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	var islandEvents int
	for e := range j.Events() {
		if e.Kind == KindIslands {
			if len(e.Islands.PerIsland) != 2 {
				t.Errorf("island event has %d islands", len(e.Islands.PerIsland))
			}
			islandEvents++
		}
	}
	if islandEvents != 3 {
		t.Errorf("%d island events, want 3", islandEvents)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if res, ok := j.Result().([]*CaseResult); !ok || res[0].Islands == nil {
		t.Errorf("result type %T", j.Result())
	}
}

func TestSubmitChurnScenarioEmitsChurnEvents(t *testing.T) {
	s := NewSession()
	defer s.Close()
	spec := smallScenario(4)
	spec.Dynamics = &ScenarioDynamics{ChurnRate: 0.3, Interval: 2}
	j, err := s.Submit(context.Background(), ScenariosSpec{Runs: []ScenarioRun{{Spec: spec, Seed: 13}}})
	if err != nil {
		t.Fatal(err)
	}
	var churns int
	for e := range j.Events() {
		if e.Kind == KindChurn {
			churns++
		}
	}
	if churns == 0 {
		t.Error("churning run emitted no churn events")
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitSweepMixIPDRP covers the workloads that are not job kinds of
// their own: a CSN sweep submitted as a two-scenario batch, and the plain
// RunMix and RunIPDRP functions.
func TestSubmitSweepMixIPDRP(t *testing.T) {
	s := NewSession()
	defer s.Close()
	ctx := context.Background()

	var runs []ScenarioRun
	for _, csn := range []int{0, 5} {
		runs = append(runs, ScenarioRun{Spec: ScenarioSpec{Name: "sweep", Environments: []ScenarioEnv{{CSN: csn}}}})
	}
	res, err := submitWait(s, ScenariosSpec{Runs: runs,
		Defaults: Scale{Name: "test", Generations: 2, Rounds: 10, Repetitions: 1}, Opts: RunOptions{Seed: 3}})
	sweep, _ := res.([]*CaseResult)
	if err != nil || len(sweep) != 2 {
		t.Fatalf("sweep: %v %v", sweep, err)
	}

	mix, err := RunMix(MixConfig{
		Groups: []MixGroup{{Profile: ProfileAllCooperate, Count: 10}},
		CSN:    2, Rounds: 20, Mode: ShorterPaths(), Game: DefaultGameConfig(), Seed: 4,
	})
	if err != nil || mix == nil {
		t.Fatalf("mix: %v %v", mix, err)
	}

	icfg := DefaultIPDRPConfig(5)
	icfg.Generations = 3
	icfg.Rounds = 10
	ires, err := RunIPDRP(ctx, icfg)
	if err != nil || len(ires.CoopSeries) != 3 {
		t.Fatalf("ipdrp: %v %v", ires, err)
	}
}

// TestCancellationStopsAtGenerationBarrier pins the cancellation
// contract: a cancelled job stops at the next generation barrier and turns
// JobCancelled, and a cancelled Evolve still delivers the partial
// cooperation series.
func TestCancellationStopsAtGenerationBarrier(t *testing.T) {
	s := NewSession()
	defer s.Close()
	const gens = 500 // would take minutes if cancellation failed
	j, err := s.Submit(context.Background(), smallJob(gens, 17))
	if err != nil {
		t.Fatal(err)
	}
	// Cancel after the second generation event arrives.
	seen := 0
	for e := range j.EventsContext(context.Background()) {
		if e.Kind == KindGeneration {
			if seen++; seen == 2 {
				j.Cancel()
				break
			}
		}
	}
	werr := j.Wait(context.Background())
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", werr)
	}
	if j.State() != JobCancelled {
		t.Errorf("state %s, want cancelled", j.State())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := smallConfig(gens, 17)
	seen = 0
	cfg.OnGeneration = func(GenerationStats) {
		if seen++; seen == 2 {
			cancel()
		}
	}
	res, werr := Evolve(ctx, cfg)
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("Evolve = %v, want context.Canceled", werr)
	}
	if res == nil {
		t.Fatal("no partial result")
	}
	if n := len(res.CoopSeries); n < 2 || n >= gens {
		t.Errorf("partial series has %d generations, want a few", n)
	}
}

// TestCancelledJobFreesItsSlot pins the service-critical invariant: a
// killed job releases its concurrent-job slot so queued jobs run.
func TestCancelledJobFreesItsSlot(t *testing.T) {
	s := NewSession(WithMaxConcurrentJobs(1))
	defer s.Close()
	ctx := context.Background()
	long, err := s.Submit(ctx, smallJob(100000, 19))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the long job is demonstrably running.
	for e := range long.EventsContext(ctx) {
		if e.Kind == KindGeneration {
			break
		}
	}
	queued, err := s.Submit(ctx, smallJob(2, 19))
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != JobQueued {
		t.Fatalf("second job state %s, want queued behind the slot", st)
	}
	long.Cancel()
	if err := long.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("long job: %v", err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := queued.Wait(waitCtx); err != nil {
		t.Fatalf("queued job never got the freed slot: %v", err)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	s := NewSession(WithMaxConcurrentJobs(1))
	defer s.Close()
	ctx := context.Background()
	long, err := s.Submit(ctx, smallJob(100000, 23))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(ctx, smallJob(2, 23))
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	if err := queued.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cancel: %v", err)
	}
	if queued.State() != JobCancelled {
		t.Errorf("state %s", queued.State())
	}
	long.Cancel()
	long.Wait(ctx)
}

func TestSessionCloseRejectsAndCancels(t *testing.T) {
	s := NewSession()
	j, err := s.Submit(context.Background(), smallJob(100000, 29))
	if err != nil {
		t.Fatal(err)
	}
	s.Close() // must cancel the running job and wait for it
	if !j.State().Terminal() {
		t.Errorf("job state %s after Close", j.State())
	}
	if _, err := s.Submit(context.Background(), smallJob(2, 29)); err == nil {
		t.Error("closed session accepted a job")
	}
}

func TestEventsReplayAfterCompletion(t *testing.T) {
	s := NewSession()
	defer s.Close()
	j, err := s.Submit(context.Background(), smallJob(3, 31))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := drain(t, j)
	second := drain(t, j) // late subscriber: full replay
	if !reflect.DeepEqual(first, second) {
		t.Error("late subscription did not replay the identical stream")
	}
	if len(second) == 0 || second[len(second)-1].Kind != KindDone {
		t.Error("replayed stream not terminated by the done event")
	}
	if j.EventCount() != len(first) {
		t.Errorf("EventCount %d, log %d", j.EventCount(), len(first))
	}
}

func TestJobFailureState(t *testing.T) {
	s := NewSession()
	defer s.Close()
	bad := smallJob(2, 1)
	bad.Runs[0].Spec.Population = 1 // invalid
	j, err := s.Submit(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err == nil {
		t.Fatal("invalid config did not fail the job")
	}
	if j.State() != JobFailed {
		t.Errorf("state %s, want failed", j.State())
	}
	events := drain(t, j)
	last := events[len(events)-1]
	if last.Done == nil || last.Done.State != JobFailed || last.Done.Error == "" {
		t.Errorf("terminal event %+v", last)
	}
}

func TestSessionLookupAndIDs(t *testing.T) {
	s := NewSession()
	defer s.Close()
	j1, _ := s.Submit(context.Background(), smallJob(1, 1))
	j2, _ := s.Submit(context.Background(), smallJob(1, 2))
	if j1.ID() != "job-1" || j2.ID() != "job-2" {
		t.Errorf("ids %s %s", j1.ID(), j2.ID())
	}
	if got, ok := s.Job("job-2"); !ok || got != j2 {
		t.Error("lookup failed")
	}
	if jobs := s.Jobs(); len(jobs) != 2 || jobs[0] != j1 {
		t.Error("Jobs() wrong")
	}
	j1.Wait(context.Background())
	j2.Wait(context.Background())
}

// TestDefaultSeedAppliesOnSubmitPath pins the seed policy: a batch spec
// submitted without a seed (the adhocd path) uses the session's
// WithDefaultSeed exactly like one that sets it explicitly.
func TestDefaultSeedAppliesOnSubmitPath(t *testing.T) {
	fam, err := ScenarioFamilyByName("table4")
	if err != nil {
		t.Fatal(err)
	}
	runs := []ScenarioRun{{Spec: fam.Specs()[0]}}
	sc := Scale{Name: "test", Generations: 2, Rounds: 10, Repetitions: 1}

	s := NewSession(WithDefaultSeed(99))
	defer s.Close()
	j, err := s.Submit(context.Background(), ScenariosSpec{Runs: runs, Defaults: sc, Opts: RunOptions{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	viaSubmit := j.Result().([]*CaseResult)

	plain := NewSession()
	defer plain.Close()
	res, err := submitWait(plain, ScenariosSpec{Runs: runs, Defaults: sc, Opts: RunOptions{Seed: 99, Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	explicit := res.([]*CaseResult)
	if !reflect.DeepEqual(viaSubmit[0].CoopMean, explicit[0].CoopMean) {
		t.Error("Submit path ignored the session's default seed")
	}
}

// TestJobRetentionEvictsOldTerminalJobs pins the daemon-critical bound:
// finished jobs beyond the retention cap drop out of lookup so a
// long-lived session's memory stays bounded.
func TestJobRetentionEvictsOldTerminalJobs(t *testing.T) {
	s := NewSession(WithJobRetention(2))
	defer s.Close()
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, err := s.Submit(context.Background(), smallJob(1, uint64(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if got := len(s.Jobs()); got != 2 {
		t.Fatalf("session retains %d jobs, want 2", got)
	}
	if _, ok := s.Job(jobs[0].ID()); ok {
		t.Error("oldest job still reachable past the retention bound")
	}
	if _, ok := s.Job(jobs[4].ID()); !ok {
		t.Error("newest job evicted")
	}
	// Held handles keep working after eviction.
	if jobs[0].State() != JobDone || len(drain(t, jobs[0])) == 0 {
		t.Error("evicted job's handle broke")
	}
}

func TestEventJSONDeterministic(t *testing.T) {
	s := NewSession(WithPoolSize(1))
	defer s.Close()
	run := func() string {
		j, err := s.Submit(context.Background(), smallJob(2, 37))
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for e := range j.Events() {
			b, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf, b...)
			buf = append(buf, '\n')
		}
		return string(buf)
	}
	a, b := run(), run()
	// Job IDs differ between submissions; normalize them out.
	if len(a) != len(b) {
		t.Errorf("event NDJSON length differs between identical runs:\n%s\n---\n%s", a, b)
	}
}

func TestPartialSeriesFolding(t *testing.T) {
	var p PartialSeries
	if !p.Empty() {
		t.Error("fresh accumulator not empty")
	}
	add := func(scen, rep, gen int, coop float64) {
		p.Add(Event{Kind: KindGeneration, Generation: &GenerationEvent{
			Scenario: scen, Rep: rep, Gen: gen, Coop: coop, MeanEnvCoop: coop / 2,
		}})
	}
	add(0, 0, 0, 0.2)
	add(0, 1, 0, 0.4)
	add(0, 0, 1, 0.6)
	p.Add(Event{Kind: KindReplicate, Replicate: &ReplicateEvent{Done: 1, Total: 2}}) // ignored
	if p.Empty() || p.LastGeneration() != 1 {
		t.Errorf("lastGen %d", p.LastGeneration())
	}
	got := p.Series(0, false)
	want := []float64{0.3, 0.6}
	if len(got) != len(want) {
		t.Fatalf("series %v, want %v", got, want)
	}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("series %v, want %v", got, want)
		}
	}
	env := p.Series(0, true)
	if diff := env[0] - 0.15; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("env series %v", env)
	}
	if p.Series(3, false) != nil {
		t.Error("unknown scenario should be nil")
	}
	// Gap fill: generation 3 observed, 2 missing.
	add(1, 0, 0, 0.1)
	add(1, 0, 3, 0.5)
	s1 := p.Series(1, false)
	if !reflect.DeepEqual(s1, []float64{0.1, 0.1, 0.1, 0.5}) {
		t.Errorf("gap-filled series %v", s1)
	}
}
