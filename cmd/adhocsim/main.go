// Command adhocsim runs a one-off ad hoc network tournament with a fixed
// (non-evolved) population mix and reports delivery rates, fitness, and
// forwarding behavior per group — the quickest way to poke at the game
// model without running the GA.
//
// Usage:
//
//	adhocsim -mix all-cooperate:30,trust>=1:10 -csn 10 -rounds 300
//	adhocsim -mix all-cooperate:30 -scenario spec.json
//	adhocsim -list
//
// With -scenario, the tournament's rounds, path mode, and CSN count
// default to the scenario's values (its first environment); explicit
// flags still win. The argument must resolve to exactly one scenario.
//
// The tournament is one adhocga.RunMix call: a single bounded tournament
// that always runs to completion.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"adhocga"
	"adhocga/internal/baselines"
	"adhocga/internal/energy"
	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/report"
	"adhocga/internal/scenario"
	"adhocga/internal/strategy"
	"adhocga/internal/tournament"
)

func main() {
	var (
		mix         = flag.String("mix", "trust>=1:40", "comma-separated profile:count pairs (profile may also be a 13-bit strategy)")
		csn         = flag.Int("csn", 10, "constantly selfish nodes")
		rounds      = flag.Int("rounds", 300, "tournament rounds")
		mode        = flag.String("mode", "SP", "path mode: SP or LP")
		scenarioArg = flag.String("scenario", "", "scenario (JSON file, family, or name) supplying csn/rounds/mode defaults")
		seed        = flag.Uint64("seed", 1, "seed")
		randomPath  = flag.Bool("random-path", false, "choose routes uniformly instead of by reputation")
		showEnergy  = flag.Bool("energy", false, "report radio energy spending per node class")
		gossip      = flag.Int("gossip", 0, "exchange second-hand reputation every N rounds (0 = off)")
		list        = flag.Bool("list", false, "list built-in profiles and exit")
	)
	flag.Parse()

	if *list {
		t := report.NewTable("built-in profiles", "name", "strategy")
		for _, p := range baselines.StandardProfiles() {
			t.AddRow(p.Name, p.Strategy.String())
		}
		fmt.Print(t.Render())
		return
	}

	if *scenarioArg != "" {
		if err := applyScenario(*scenarioArg, csn, rounds, mode); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	groups, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pathMode := network.ShorterPaths()
	if strings.EqualFold(*mode, "LP") {
		pathMode = network.LongerPaths()
	}
	cfg := baselines.MixConfig{
		Groups: groups,
		CSN:    *csn,
		Rounds: *rounds,
		Mode:   pathMode,
		Game:   game.DefaultConfig(),
		Seed:   *seed,
	}
	if *randomPath {
		cfg.PathChoice = tournament.RandomPath
	}
	// CORE-style gossip defaults (positive reports only, modest
	// credibility) are applied inside RunMix when the interval is set.
	cfg.GossipInterval = *gossip
	var meter *energy.Meter
	if *showEnergy {
		var err error
		meter, err = energy.NewMeter(energy.DefaultCosts())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Recorder = meter
	}
	res, err := adhocga.RunMix(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("cooperation level (normal-originated delivery): %s\n", report.Percent(res.Cooperation))
	if *csn > 0 {
		fmt.Printf("CSN delivery rate: %s\n", report.Percent(res.CSNDelivery))
	}
	t := report.NewTable("\nper-group outcomes", "group", "delivery", "fitness", "forward share")
	for _, g := range res.Groups {
		t.AddRow(g.Name, report.Percent(g.DeliveryRate),
			report.FormatFloat(g.Fitness), report.Percent(g.ForwardShare))
	}
	fmt.Print(t.Render())

	if meter != nil {
		n, s := meter.ByType()
		et := report.NewTable("\nradio energy (arbitrary units)", "class", "nodes", "mean spent")
		et.AddRow("normal", fmt.Sprint(n.Nodes), report.FormatFloat(n.MeanEnergy))
		if s.Nodes > 0 {
			et.AddRow("selfish", fmt.Sprint(s.Nodes), report.FormatFloat(s.MeanEnergy))
		}
		fmt.Print(et.Render())
	}
}

// applyScenario overwrites the csn/rounds/mode defaults with the first
// loaded scenario's values wherever the user did not set the flag
// explicitly on the command line.
func applyScenario(arg string, csn, rounds *int, mode *string) error {
	specs, err := scenario.FromArg(arg)
	if err != nil {
		return err
	}
	if len(specs) != 1 {
		return fmt.Errorf("adhocsim: -scenario %q resolves to %d scenarios, need exactly one", arg, len(specs))
	}
	spec := specs[0]
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["csn"] {
		*csn = spec.Environments[0].CSN
	}
	if !set["rounds"] && spec.Rounds > 0 {
		*rounds = spec.Rounds
	}
	if !set["mode"] {
		m, err := spec.Mode()
		if err != nil {
			return err
		}
		*mode = m.Name
	}
	return nil
}

// parseMix parses "name:count,name:count". A name that is not a built-in
// profile is parsed as a 13-bit strategy string.
func parseMix(s string) ([]baselines.Group, error) {
	var groups []baselines.Group
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		idx := strings.LastIndex(part, ":")
		if idx < 0 {
			return nil, fmt.Errorf("mix entry %q is not profile:count", part)
		}
		name, countStr := part[:idx], part[idx+1:]
		count, err := strconv.Atoi(countStr)
		if err != nil {
			return nil, fmt.Errorf("mix entry %q: bad count: %v", part, err)
		}
		profile, err := baselines.ProfileByName(name)
		if err != nil {
			st, perr := strategy.Parse(name)
			if perr != nil {
				return nil, fmt.Errorf("mix entry %q: not a profile (%v) nor a strategy (%v)", part, err, perr)
			}
			profile = baselines.Profile{Name: name, Strategy: st}
		}
		groups = append(groups, baselines.Group{Profile: profile, Count: count})
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return groups, nil
}
