package experiment

import (
	"context"
	"fmt"

	"adhocga/internal/core"
	"adhocga/internal/island"
	"adhocga/internal/rng"
	"adhocga/internal/runner"
	"adhocga/internal/scenario"
)

// job is one scenario resolved to a concrete workload. The shared worker
// pool schedules its repetitions as individual work units; every workload
// in the package — RunCaseContext, CSNSweepContext, RunScenariosContext —
// flattens to jobs.
type job struct {
	c    Case
	sc   Scale
	seed uint64
	// config builds one replicate's configuration from its derived seed.
	config func(repSeed uint64) (core.Config, error)
	// islands, when non-nil, routes replicates through the island-model
	// engine; iconfig builds the replicate's island configuration.
	islands *scenario.IslandSpec
	iconfig func(repSeed uint64) (island.Config, error)
	// dyn is the scenario's resolved dynamics block (nil when static);
	// tsize the resolved tournament size. Both ride through to the
	// CaseResult for the churn/adversary reporting.
	dyn   *scenario.DynamicsSpec
	tsize int
}

// caseJob wraps a Table 4-style Case in a job. The configuration is the
// paper's §6.1 parameterization with the scale's generation and round
// budget — kept byte-for-byte compatible with the pre-runner RunCase so
// fixed-seed results are unchanged.
func caseJob(c Case, sc Scale, seed uint64) job {
	return job{c: c, sc: sc, seed: seed, config: func(repSeed uint64) (core.Config, error) {
		cfg := core.PaperConfig(c.Environments, c.Mode, repSeed)
		cfg.Generations = sc.Generations
		cfg.Eval.Tournament.Rounds = sc.Rounds
		return cfg, nil
	}}
}

// specJob resolves a declarative scenario against the run's default scale
// and fallback seed.
func specJob(spec scenario.Spec, defaults Scale, fallbackSeed uint64) (job, error) {
	if err := spec.Validate(); err != nil {
		return job{}, err
	}
	resolved := spec.Resolve(defaults)
	mode, err := resolved.Mode()
	if err != nil {
		return job{}, err
	}
	// Fail fast on parameter interactions (e.g. tournament size vs
	// population, or an islands block that does not divide the
	// population) the structural Validate cannot see: one bad spec must
	// reject the whole batch up front, not waste every other scenario's
	// compute before erroring. The seed is irrelevant to validation.
	if resolved.Islands != nil {
		if _, err := resolved.IslandConfig(1); err != nil {
			return job{}, err
		}
	} else if _, err := resolved.Config(1); err != nil {
		return job{}, err
	}
	return job{
		c: Case{ID: resolved.ID, Name: resolved.Name, Environments: resolved.Envs(), Mode: mode},
		sc: Scale{
			Name:        defaults.Name,
			Generations: resolved.Generations,
			Rounds:      resolved.Rounds,
			Repetitions: resolved.Repetitions,
		},
		seed:    resolved.MasterSeed(fallbackSeed),
		config:  resolved.Config,
		islands: resolved.Islands,
		iconfig: resolved.IslandConfig,
		dyn:     resolved.Dynamics,
		tsize:   resolved.TournamentSize,
	}, nil
}

// runJobs executes a batch of jobs over one shared bounded worker pool:
// every (job × replicate) pair becomes one work unit in a single queue, so
// workers cross job boundaries freely and no cores idle between sweep
// points. Per-replicate seeds are derived up front, in (job, replicate)
// order, from each job's own master seed — results are therefore
// bit-identical at any parallelism level, and identical to running each
// job alone. Cancellation is cooperative: running replicates stop at their
// next generation barrier, queued ones never start, and the returned error
// joins every replicate failure (task-index order) with ctx.Err().
func runJobs(ctx context.Context, jobs []job, opts Options) ([]*CaseResult, error) {
	type unit struct {
		job, rep int
		seed     uint64
	}
	var units []unit
	results := make([][]*core.Result, len(jobs))
	islandResults := make([][]*island.Result, len(jobs))
	for ji, j := range jobs {
		if j.sc.Repetitions < 1 {
			return nil, fmt.Errorf("experiment: scale %q has %d repetitions", j.sc.Name, j.sc.Repetitions)
		}
		master := rng.New(j.seed)
		results[ji] = make([]*core.Result, j.sc.Repetitions)
		if j.islands != nil {
			islandResults[ji] = make([]*island.Result, j.sc.Repetitions)
		}
		for rep := 0; rep < j.sc.Repetitions; rep++ {
			units = append(units, unit{job: ji, rep: rep, seed: master.Uint64()})
		}
	}
	task := func(i int) error {
		u := units[i]
		j := &jobs[u.job]
		if j.islands != nil {
			// Island replicate: the island engine fans its per-generation
			// evaluation out over its own transient workers. Workers may
			// briefly oversubscribe the CPU when many replicates run at
			// once; that affects wall-clock only — results are
			// deterministic at any parallelism level.
			icfg, err := j.iconfig(u.seed)
			if err != nil {
				return err
			}
			icfg.Parallelism = opts.Parallelism
			if opts.OnIslandGeneration != nil {
				icfg.OnGeneration = func(gs island.GenerationStats) {
					opts.OnIslandGeneration(u.job, u.rep, gs)
				}
			}
			if opts.OnChurn != nil {
				icfg.Core.OnChurn = func(gen int) { opts.OnChurn(u.job, u.rep, gen) }
			}
			if opts.OnCheckpoint != nil {
				icfg.OnCheckpoint = func(cp core.Checkpoint) {
					opts.OnCheckpoint(u.job, u.rep, u.seed, cp)
				}
			}
			engine, err := island.New(icfg)
			if err != nil {
				return err
			}
			ires, err := engine.RunContext(ctx)
			if err != nil {
				return err
			}
			results[u.job][u.rep] = ires.Aggregate
			islandResults[u.job][u.rep] = ires
			return nil
		}
		cfg, err := j.config(u.seed)
		if err != nil {
			return err
		}
		if opts.OnGeneration != nil {
			cfg.OnGeneration = func(gs core.GenerationStats) {
				opts.OnGeneration(u.job, u.rep, gs)
			}
		}
		if opts.OnChurn != nil {
			cfg.OnChurn = func(gen int) { opts.OnChurn(u.job, u.rep, gen) }
		}
		if opts.OnCheckpoint != nil {
			cfg.OnCheckpoint = func(cp core.Checkpoint) {
				opts.OnCheckpoint(u.job, u.rep, u.seed, cp)
			}
		}
		engine, err := core.New(cfg)
		if err != nil {
			return err
		}
		res, err := engine.RunContext(ctx)
		if err != nil {
			return err
		}
		results[u.job][u.rep] = res
		return nil
	}
	ropts := runner.Options{Parallelism: opts.Parallelism, OnDone: opts.OnReplicate}
	var err error
	if opts.Pool != nil {
		err = opts.Pool.Run(ctx, len(units), task, ropts)
	} else {
		err = runner.RunContext(ctx, len(units), task, ropts)
	}
	if err != nil {
		return nil, err
	}
	out := make([]*CaseResult, len(jobs))
	for ji, j := range jobs {
		out[ji] = Aggregate(j.c, j.sc, results[ji])
		if j.islands != nil {
			out[ji].Islands = SummarizeIslands(j.islands, islandResults[ji])
		}
		out[ji].TournamentSize = j.tsize
		if out[ji].TournamentSize <= 0 {
			out[ji].TournamentSize = 50
		}
		out[ji].Dynamics = j.dyn
		if d := j.dyn; d != nil && d.ChurnRate > 0 {
			out[ji].Recovery = SummarizeRecovery(out[ji].CoopMean, d.Interval, 0)
		}
	}
	return out, nil
}

// ScenarioRun pairs a scenario with the fallback master seed for its
// replicate streams (the spec's own pinned Seed wins when set). Zero is
// the "unset" sentinel — like Spec.Seed — and means "derive this
// scenario's stream from Options.Seed"; master seed 0 itself cannot be
// pinned, only derived.
type ScenarioRun struct {
	Spec scenario.Spec
	Seed uint64
}

// RunScenariosContext runs a batch of declarative scenarios over one shared
// worker pool and aggregates each into a CaseResult, in input order.
// Scenario fields left at zero fall back to the paper's parameterization
// and to the defaults scale.
//
// Each scenario's master seed is, in order of precedence: the spec's own
// pinned Seed, the ScenarioRun's Seed, or a per-scenario stream derived
// from Options.Seed (so unpinned scenarios in one batch never share
// replicate streams). Deterministic for fixed seeds regardless of
// parallelism. Cancellation follows the RunCaseContext contract.
func RunScenariosContext(ctx context.Context, runs []ScenarioRun, defaults Scale, opts Options) ([]*CaseResult, error) {
	// One derived fallback per run, consumed unconditionally so that
	// pinning one scenario's seed never shifts its neighbors' streams.
	master := rng.New(opts.Seed)
	jobs := make([]job, len(runs))
	for i, r := range runs {
		fallback := master.Uint64()
		if r.Seed != 0 {
			fallback = r.Seed
		}
		j, err := specJob(r.Spec, defaults, fallback)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	return runJobs(ctx, jobs, opts)
}
