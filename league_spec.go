package adhocga

import (
	"context"
	"fmt"

	"adhocga/internal/league"
)

// LeagueJobSpec runs a coevolution league over the session's champion
// archive: the selected champions (plus, optionally, the scripted
// baseline seats) meet in a round-robin of tournament matches. Result
// type: *LeagueTable. Events: the terminal KindDone only — a league is a
// bounded batch of matches, reported whole.
//
// The session must have a champion archive attached
// (WithChampionArchive); champions get into it by running jobs with
// checkpoints enabled (the scenario "checkpoints" field).
type LeagueJobSpec struct {
	// ChampionIDs selects archived champions by ID; empty seats the whole
	// archive sorted by ID (a stable order independent of archival order).
	ChampionIDs []string `json:"champions,omitempty"`
	// IncludeBaselines adds the scripted seats: all-forward,
	// never-forward, and the paper's reciprocal winner.
	IncludeBaselines bool `json:"baselines,omitempty"`
	// Engine knobs, zero meaning the league defaults (10 per side, 2
	// matches per pair, 100 rounds, SP paths, paper game rules).
	PerSide        int    `json:"per_side,omitempty"`
	CSN            int    `json:"csn,omitempty"`
	MatchesPerPair int    `json:"matches_per_pair,omitempty"`
	Rounds         int    `json:"rounds,omitempty"`
	PathMode       string `json:"path_mode,omitempty"` // "SP" (default) or "LP"
	// Seed is the league's root seed (0 = the session default seed).
	Seed        uint64 `json:"seed,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
}

// Kind returns "league".
func (LeagueJobSpec) Kind() string { return "league" }

func (sp LeagueJobSpec) run(ctx context.Context, s *Session, _ func(Event)) (any, error) {
	arch := s.champions
	if arch == nil {
		return nil, fmt.Errorf("adhocga: league job needs a champion archive — build the session with WithChampionArchive")
	}
	champs, err := arch.Select(sp.ChampionIDs)
	if err != nil {
		return nil, err
	}
	seats := make([]league.Seat, 0, len(champs)+3)
	for _, c := range champs {
		seat, err := league.ChampionSeat(c)
		if err != nil {
			return nil, err
		}
		seats = append(seats, seat)
	}
	if sp.IncludeBaselines {
		seats = append(seats, league.BaselineSeats()...)
	}
	var mode PathMode
	switch sp.PathMode {
	case "", "SP", "sp":
		// League default (withDefaults resolves to SP).
	case "LP", "lp":
		mode = LongerPaths()
	default:
		return nil, fmt.Errorf("adhocga: league job: unknown path mode %q (want SP or LP)", sp.PathMode)
	}
	seed := sp.Seed
	if seed == 0 {
		seed = s.seed
	}
	cfg := league.Config{
		Seats:          seats,
		PerSide:        sp.PerSide,
		CSN:            sp.CSN,
		MatchesPerPair: sp.MatchesPerPair,
		Rounds:         sp.Rounds,
		Mode:           mode,
		Seed:           seed,
		Parallelism:    sp.Parallelism,
	}
	// One pool slot for the whole league; its matches fan out over the
	// league's own bounded workers (the islands tradeoff: transient,
	// wall-clock-only oversubscription, results unaffected).
	return runPooled(ctx, s, func() (any, error) {
		return league.RunContext(ctx, cfg)
	})
}
