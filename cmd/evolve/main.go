// Command evolve runs evolutionary experiments — a single Table 4
// evaluation case, or any batch of declarative scenarios — and prints the
// cooperation trajectory, final strategy census, and summary statistics.
//
// Usage:
//
//	evolve -case 1 -generations 100 -rounds 300 -reps 4 -seed 1
//	evolve -scenario spec.json            # user-authored scenario file
//	evolve -scenario csn-grid             # a registered scenario family
//	evolve -scenario "mixed TE1+TE4 (SP)" # one registered scenario
//	evolve -scenario churn-sweep          # churn / recovery-after-churn sweep
//	evolve -scenario adversary-grid       # Byzantine adversary grid
//	evolve -case 1 -population 200 -islands 4 -topology ring \
//	       -migration-interval 10 -migrants 2
//	evolve -case 1 -churn 0.1 -churn-interval 5 -rewire 0.5
//	evolve -case 1 -free-riders 5 -liars 5 -onoff 5 -gossip 10
//	evolve -list-scenarios
//
// The -islands flags shard the population over an island-model engine
// (internal/island): subpopulations evolve concurrently and exchange elite
// genomes over the chosen topology. The dynamics flags (-churn, -rewire,
// -free-riders, -liars, -onoff) enable the environment-perturbation layer
// (internal/dynamics): population churn with naive immigrants, mobility-
// driven route-length drift, and Byzantine adversaries in every
// tournament. Results stay deterministic for a fixed seed at any
// parallelism level; -islands 1 and all-zero dynamics are bit-identical to
// the static serial engine.
//
// A scenario batch runs as one job on a Session (the package adhocga
// Session/Job API): every (scenario × replicate) pair is a work unit on
// the session's shared pool, so all cores stay busy even when each
// scenario has fewer replications than cores. SIGINT/SIGTERM cancel the
// job cooperatively: every replicate stops at its next generation barrier
// and the partial cooperation series streamed so far is printed with an
// "interrupted at generation N" marker instead of dying mid-write. At
// paper scale use -generations 500 -rounds 300 -reps 60 (slow).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"adhocga"
	"adhocga/internal/experiment"
	"adhocga/internal/report"
	"adhocga/internal/scenario"
	"adhocga/internal/strategy"
	"adhocga/internal/textplot"
)

func main() {
	// All work happens in run so that deferred cleanup — stopping the CPU
	// profile, writing the heap profile — executes before the process
	// exits; os.Exit here would skip defers and truncate profiles.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// interruptedExit is the exit code of a SIGINT-cancelled run (128+SIGINT,
// the shell convention), after the partial series has been emitted.
const interruptedExit = 130

// run is the whole CLI behind a testable seam: flags are parsed from args
// into a private FlagSet and every byte of output goes to the given
// writers, so the smoke tests can replay an invocation and byte-compare.
// Cancelling ctx (SIGINT/SIGTERM in main) stops the running job at its
// next generation barrier.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		caseID      = fs.Int("case", 1, "evaluation case 1-4 (Table 4); ignored with -scenario")
		scenarioArg = fs.String("scenario", "", "scenario JSON file, registered family, or registered scenario name")
		generations = fs.Int("generations", 80, "generations per replication (set explicitly, overrides scenario specs)")
		rounds      = fs.Int("rounds", 150, "rounds per tournament (set explicitly, overrides scenario specs)")
		reps        = fs.Int("reps", 4, "independent replications (set explicitly, overrides scenario specs)")
		population  = fs.Int("population", 0, "total evolving population (unset = scenario/paper default; must divide by -islands)")
		islands     = fs.Int("islands", 0, "shard the population over this many islands (unset = scenario default; 1 = serial)")
		topology    = fs.String("topology", "", "island migration topology: ring, full, or random-pairs")
		interval    = fs.Int("migration-interval", 0, "generations between island migrations (unset = default 10)")
		migrants    = fs.Int("migrants", 0, "elite genomes sent per topology edge each migration (unset = default 1)")
		churn       = fs.Float64("churn", 0, "fraction of the population replaced by naive immigrants at each dynamics barrier [0,1]")
		churnIntv   = fs.Int("churn-interval", 0, "generations between dynamics barriers (unset = default 1)")
		rewire      = fs.Float64("rewire", 0, "per-barrier probability of mobility rewiring the route-length landscape [0,1]")
		freeRiders  = fs.Int("free-riders", 0, "Byzantine free-riders seated in every tournament")
		liars       = fs.Int("liars", 0, "Byzantine gossip liars seated in every tournament (enable -gossip)")
		onoff       = fs.Int("onoff", 0, "Byzantine on-off attackers seated in every tournament")
		gossip      = fs.Int("gossip", 0, "rounds between reputation gossip exchanges (unset = off)")
		seed        = fs.Uint64("seed", 1, "master seed")
		par         = fs.Int("par", 0, "worker pool size (0 = all cores)")
		quiet       = fs.Bool("q", false, "suppress progress output")
		csvPath     = fs.String("csv", "", "write the cooperation series as CSV to this file (single scenario only)")
		savePath    = fs.String("save", "", "write the final strategy census to this file (ungrouped strategy + share per line; strings are accepted by adhocsim -mix); single scenario only")
		list        = fs.Bool("list-scenarios", false, "list registered scenario families and exit")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile  = fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	// Fail fast on nonsense values the downstream layers would otherwise
	// silently ignore (an explicit -islands 0 used to fall back to a
	// serial run that looked like the island experiment the user asked
	// for) or turn into a confusing late error.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, check := range []struct {
		name string
		bad  bool
		msg  string
	}{
		{"generations", *generations < 1, "generations must be >= 1"},
		{"rounds", *rounds < 1, "rounds must be >= 1"},
		{"reps", *reps < 1, "reps must be >= 1"},
		{"population", *population < 1, "population must be >= 1"},
		{"islands", *islands < 1, "islands must be >= 1"},
		{"migration-interval", *interval < 1, "migration-interval must be >= 1"},
		{"migrants", *migrants < 1, "migrants must be >= 1"},
		{"churn", *churn < 0 || *churn > 1, "churn must be in [0,1]"},
		{"churn-interval", *churnIntv < 1, "churn-interval must be >= 1"},
		{"rewire", *rewire < 0 || *rewire > 1, "rewire must be in [0,1]"},
		{"free-riders", *freeRiders < 0, "free-riders must be >= 0"},
		{"liars", *liars < 0, "liars must be >= 0"},
		{"onoff", *onoff < 0, "onoff must be >= 0"},
		{"gossip", *gossip < 1, "gossip must be >= 1"},
	} {
		if set[check.name] && check.bad {
			fmt.Fprintf(stderr, "evolve: -%s: %s\n", check.name, check.msg)
			return 2
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // material allocations only, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	if *list {
		t := report.NewTable("registered scenario families", "family", "scenarios", "description")
		for _, f := range scenario.Families() {
			t.AddRow(f.Name, fmt.Sprint(len(f.Specs())), f.Description)
		}
		fmt.Fprint(stdout, t.Render())
		return 0
	}

	sc := experiment.Scale{Name: "custom", Generations: *generations, Rounds: *rounds, Repetitions: *reps}

	// One Session per invocation: its shared pool carries every replicate,
	// and SIGINT cancels the submitted job at the next generation barrier.
	session := adhocga.NewSession(adhocga.WithPoolSize(*par))
	defer session.Close()

	// Explicitly-set scale flags win over scenario pins (matching
	// adhocsim's -scenario precedence); unset flags only provide
	// defaults for fields the spec leaves open.
	//
	// applyOverrides overlays the explicitly-set flags on one spec. The
	// migration flags refuse to be dropped silently: without an island
	// count in play they would otherwise leave a serial run that looks
	// like the island experiment the user asked for.
	applyOverrides := func(s *scenario.Spec) error {
		if set["generations"] {
			s.Generations = *generations
		}
		if set["rounds"] {
			s.Rounds = *rounds
		}
		if set["reps"] {
			s.Repetitions = *reps
		}
		if set["population"] {
			s.Population = *population
		}
		if set["islands"] {
			if s.Islands == nil {
				s.Islands = &scenario.IslandSpec{}
			}
			s.Islands.Count = *islands
		}
		if set["churn"] || set["rewire"] || set["free-riders"] || set["liars"] || set["onoff"] {
			if s.Dynamics == nil {
				s.Dynamics = &scenario.DynamicsSpec{}
			}
		}
		if d := s.Dynamics; d != nil {
			if set["churn"] {
				d.ChurnRate = *churn
			}
			if set["churn-interval"] {
				d.Interval = *churnIntv
			}
			if set["rewire"] {
				d.RewireProb = *rewire
			}
			if set["free-riders"] {
				d.FreeRiders = *freeRiders
			}
			if set["liars"] {
				d.Liars = *liars
			}
			if set["onoff"] {
				d.OnOff = *onoff
			}
		} else if set["churn-interval"] {
			return fmt.Errorf("evolve: -churn-interval needs -churn or a scenario with a dynamics block (scenario %q has none)", s.Name)
		}
		if set["gossip"] {
			if s.Gossip == nil {
				s.Gossip = &scenario.GossipSpec{}
			}
			s.Gossip.Interval = *gossip
		}
		if s.Islands == nil {
			if set["topology"] || set["migration-interval"] || set["migrants"] {
				return fmt.Errorf("evolve: -topology/-migration-interval/-migrants need -islands or a scenario with an islands block (scenario %q has none)", s.Name)
			}
			return nil
		}
		if set["topology"] {
			s.Islands.Topology = *topology
		}
		if set["migration-interval"] {
			s.Islands.Interval = *interval
		}
		if set["migrants"] {
			s.Islands.Migrants = *migrants
		}
		return nil
	}
	var results []*experiment.CaseResult
	var code int
	if *scenarioArg != "" {
		specs, err := scenario.FromArg(*scenarioArg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if (*csvPath != "" || *savePath != "") && len(specs) != 1 {
			fmt.Fprintln(stderr, "-csv/-save need a single scenario; got", len(specs))
			return 2
		}
		runs := make([]experiment.ScenarioRun, len(specs))
		names := make([]string, len(specs))
		for i, s := range specs {
			if err := applyOverrides(&s); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			runs[i] = experiment.ScenarioRun{Spec: s}
			names[i] = s.Name
		}
		// The scenarios job derives a distinct fallback stream per
		// scenario from the batch seed; a spec's pinned seed still wins.
		results, code = runJob(ctx, session, adhocga.ScenariosSpec{
			Runs: runs, Defaults: sc,
			Opts: experiment.Options{Seed: *seed, Parallelism: *par},
		}, names, *quiet, stdout, stderr)
	} else {
		// -case N runs the case's Table 4 registry scenario, which resolves
		// to exactly the paper's case configuration; the island, population
		// and dynamics flags overlay it like any other scenario. Pinning the
		// run seed keeps a nonzero -seed the case's master seed (0 is the
		// "derive" sentinel of the scenario layer, so -seed 0 runs on a
		// stream derived from it, with or without the overlay flags).
		if _, err := experiment.CaseByID(*caseID); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		var spec scenario.Spec
		for _, s := range scenario.Table4() {
			if s.ID == *caseID {
				spec = s
			}
		}
		if err := applyOverrides(&spec); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		results, code = runJob(ctx, session, adhocga.ScenariosSpec{
			Runs: []experiment.ScenarioRun{{Spec: spec, Seed: *seed}}, Defaults: sc,
			Opts: experiment.Options{Seed: *seed, Parallelism: *par},
		}, []string{spec.Name}, *quiet, stdout, stderr)
	}
	if code >= 0 {
		return code
	}

	for i, res := range results {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		printResult(stdout, res)
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, results[0]); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "cooperation series written to %s\n", *csvPath)
	}
	if *savePath != "" {
		if err := writeCensus(*savePath, results[0]); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "final census written to %s\n", *savePath)
	}
	return 0
}

// runJob submits one job to the session and consumes its event stream:
// replicate completions become the progress line on stderr, generation
// events fold into a partial-series accumulator. The returned exit code is
// -1 on success (results valid), interruptedExit after a cooperative
// cancellation (the partial cooperation series has been printed with its
// interruption marker), and 1 on failure.
func runJob(ctx context.Context, session *adhocga.Session, spec adhocga.ScenariosSpec, names []string, quiet bool, stdout, stderr io.Writer) ([]*experiment.CaseResult, int) {
	job, err := session.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, 1
	}
	var partial adhocga.PartialSeries
	for e := range job.Events() {
		switch e.Kind {
		case adhocga.KindReplicate:
			if !quiet {
				fmt.Fprintf(stderr, "\rreplication %d/%d done", e.Replicate.Done, e.Replicate.Total)
				if e.Replicate.Done == e.Replicate.Total {
					fmt.Fprintln(stderr)
				}
			}
		default:
			partial.Add(e)
		}
	}
	// The event stream is closed, so the job is terminal: Wait only
	// collects its error.
	if err := job.Wait(context.Background()); err != nil {
		if job.State() == adhocga.JobCancelled {
			if !quiet {
				fmt.Fprintln(stderr)
			}
			adhocga.RenderInterrupted(stdout, &partial, names)
			return nil, interruptedExit
		}
		fmt.Fprintln(stderr, err)
		return nil, 1
	}
	return job.Result().([]*experiment.CaseResult), -1
}

func printResult(w io.Writer, res *experiment.CaseResult) {
	c, sc := res.Case, res.Scale
	series := res.CoopMean
	if len(c.Environments) > 1 {
		series = res.MeanEnvCoopMean
	}
	chart := textplot.Chart{
		Title: fmt.Sprintf("%s — cooperation level over %d generations (mean of %d reps)",
			c.Name, sc.Generations, sc.Repetitions),
		YMin: 0, YMax: 1, FixedY: true,
	}
	chart.AddSeries("cooperation", series)
	fmt.Fprintln(w, chart.Render())

	fmt.Fprintf(w, "final cooperation: %s\n", res.FinalCoop)
	if len(c.Environments) > 1 {
		fmt.Fprintf(w, "final env-mean cooperation: %s\n", res.FinalMeanEnvCoop)
		for _, env := range res.PerEnv {
			fmt.Fprintf(w, "  %s: coop %s  csn-free %s\n", env.Name, env.Cooperation, env.CSNFree)
		}
	}

	if res.Islands != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, experiment.IslandTable(res).Render())
		fmt.Fprintf(w, "champion fitness: %s  migrants moved: %d over %d barriers\n",
			res.Islands.ChampionFitness, res.Islands.MigrantsMoved, res.Islands.MigrationEvents)
	}

	if res.Recovery != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, experiment.RecoveryTable(res).Render())
	}
	if d := res.Dynamics; d != nil && d.AdversaryCount() > 0 {
		fmt.Fprintf(w, "byzantine cohort: %d free-riders, %d liars, %d on-off (%s of each tournament)\n",
			d.FreeRiders, d.Liars, d.OnOff,
			report.Percent(float64(d.AdversaryCount())/float64(res.TournamentSize)))
		if res.FromByz.Total() > 0 {
			acc, _, _ := res.FromByz.Fractions()
			fmt.Fprintf(w, "requests from byzantine sources accepted: %s\n", report.Percent(acc))
		}
	}

	top := report.NewTable("\nmost frequent final strategies", "strategy", "share", "family")
	for _, e := range res.Census.Top(5) {
		top.AddRow(e.Strategy.String(), report.Percent(e.Fraction), string(e.Strategy.Classify()))
	}
	fmt.Fprintln(w, top.Render())
	fmt.Fprintf(w, "unknown-node forward share: %s\n", report.Percent(res.Census.UnknownForwardFraction()))
	fmt.Fprintf(w, "mean trust monotonicity: %s\n", report.Percent(res.Census.MeanTrustMonotonicity()))
	fams := res.Census.CategoryCensus()
	fmt.Fprint(w, "behavioral families:")
	for _, cat := range []strategy.Category{strategy.CategoryReciprocal, strategy.CategoryAltruist,
		strategy.CategoryDefector, strategy.CategoryContrarian, strategy.CategoryMixed} {
		if share := fams[cat]; share > 0 {
			fmt.Fprintf(w, "  %s %s", cat, report.Percent(share))
		}
	}
	fmt.Fprintln(w)
}

// writeCensus dumps every distinct final strategy with its population
// share, most frequent first, in the ungrouped notation adhocsim accepts.
func writeCensus(path string, res *experiment.CaseResult) error {
	var sb strings.Builder
	for _, e := range res.Census.Top(1 << 30) {
		fmt.Fprintf(&sb, "%s %.6f\n", e.Strategy.Key(), e.Fraction)
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// writeCSV dumps the per-generation cooperation series (mean and std
// across replications).
func writeCSV(path string, res *experiment.CaseResult) error {
	t := report.NewTable("", "generation", "coop_mean", "coop_std", "mean_env_coop")
	for g := range res.CoopMean {
		t.AddRowf(g, res.CoopMean[g], res.CoopStd[g], res.MeanEnvCoopMean[g])
	}
	return os.WriteFile(path, []byte(t.CSV()), 0o644)
}
