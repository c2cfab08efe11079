// Package ipdrp implements the Iterated Prisoner's Dilemma under Random
// Pairing of Namikawa and Ishibuchi [12], the game-theoretic model the
// paper's Ad Hoc Network Game generalizes (§2, §5).
//
// Each player carries a 5-bit single-round-memory strategy: bit 0 is the
// first move; bits 1–4 give the move for each possible outcome of the
// player's previous round (own move × opponent move). Every round the
// population is paired uniformly at random, each pair plays one Prisoner's
// Dilemma round, and each player remembers only its own last outcome —
// typically against a different opponent than the next round's.
package ipdrp

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"adhocga/internal/bitstring"
	"adhocga/internal/ga"
	"adhocga/internal/rng"
)

// Move is a Prisoner's Dilemma move.
type Move uint8

// The two moves.
const (
	Defect Move = iota
	Cooperate
)

// String returns "C" or "D".
func (m Move) String() string {
	if m == Cooperate {
		return "C"
	}
	return "D"
}

// Bits is the strategy genome length: first move + 4 previous-round
// outcomes.
const Bits = 5

// Strategy is a 5-bit IPDRP strategy. Bit 0: first move. Bits 1–4: the
// response when (my previous, opponent previous) was (C,C), (C,D), (D,C),
// (D,D) respectively. Bit value 1 means Cooperate.
type Strategy struct {
	bits bitstring.Bits
}

// New wraps a 5-bit genome. It panics on a wrong length.
func New(b bitstring.Bits) Strategy {
	if b.Len() != Bits {
		panic(fmt.Sprintf("ipdrp: genome has %d bits, want %d", b.Len(), Bits))
	}
	return Strategy{bits: b}
}

// Random returns a uniformly random strategy.
func Random(r *rng.Source) Strategy { return Strategy{bits: bitstring.Random(r, Bits)} }

// MustParse parses a 5-character bit string such as "10010".
func MustParse(s string) Strategy {
	b := bitstring.MustParse(s)
	return New(b)
}

// FirstMove returns the opening move.
func (s Strategy) FirstMove() Move {
	if s.bits.Get(0) {
		return Cooperate
	}
	return Defect
}

// Next returns the move after a previous round in which the player moved
// prevMine and its then-opponent moved prevOpp.
func (s Strategy) Next(prevMine, prevOpp Move) Move {
	idx := 1
	if prevMine == Defect {
		idx += 2
	}
	if prevOpp == Defect {
		idx++
	}
	if s.bits.Get(idx) {
		return Cooperate
	}
	return Defect
}

// Genome returns a copy of the genome.
func (s Strategy) Genome() bitstring.Bits { return s.bits.Clone() }

// Key returns the canonical bit string.
func (s Strategy) Key() string { return s.bits.Compact() }

// String renders the strategy as first-move + response block, e.g. "1 1001".
func (s Strategy) String() string { return s.bits.GroupString(1, 4) }

// Canonical strategies.
func AllC() Strategy { return MustParse("11111") }
func AllD() Strategy { return MustParse("00000") }

// TitForTat opens cooperating and repeats the previous opponent's move
// (of whoever it met last round — the random-pairing twist).
func TitForTat() Strategy { return MustParse("11010") }

// Payoffs is the Prisoner's Dilemma payoff matrix. Defaults satisfy
// T > R > P > S and 2R > T+S.
type Payoffs struct {
	Temptation float64 // T: I defect, opponent cooperates
	Reward     float64 // R: both cooperate
	Punishment float64 // P: both defect
	Sucker     float64 // S: I cooperate, opponent defects
}

// StandardPayoffs returns the canonical 5/3/1/0 matrix.
func StandardPayoffs() Payoffs {
	return Payoffs{Temptation: 5, Reward: 3, Punishment: 1, Sucker: 0}
}

// Validate checks the dilemma conditions.
func (p Payoffs) Validate() error {
	if !(p.Temptation > p.Reward && p.Reward > p.Punishment && p.Punishment > p.Sucker) {
		return fmt.Errorf("ipdrp: payoffs must satisfy T > R > P > S, got %+v", p)
	}
	if 2*p.Reward <= p.Temptation+p.Sucker {
		return fmt.Errorf("ipdrp: payoffs must satisfy 2R > T+S, got %+v", p)
	}
	return nil
}

// Score returns the payoffs of a single round for (mine, opp).
func (p Payoffs) Score(mine, opp Move) float64 {
	switch {
	case mine == Cooperate && opp == Cooperate:
		return p.Reward
	case mine == Cooperate && opp == Defect:
		return p.Sucker
	case mine == Defect && opp == Cooperate:
		return p.Temptation
	default:
		return p.Punishment
	}
}

// Config parameterizes an IPDRP evolution run.
type Config struct {
	Population  int // must be even (players pair up every round)
	Rounds      int // rounds per generation
	Generations int
	Payoffs     Payoffs
	GA          ga.Config
	Seed        uint64
	// OnGeneration, when non-nil, receives (generation, cooperation rate,
	// fitness stats) after each generation's play.
	OnGeneration func(gen int, coopRate float64, stats ga.PopulationStats)
}

// DefaultConfig mirrors the scale of [12]: population 100, 100 rounds,
// roulette selection (the operator this paper replaced with tournament
// selection), crossover 0.9, mutation 0.001.
func DefaultConfig(seed uint64) Config {
	gaCfg := ga.PaperConfig()
	gaCfg.Selector = ga.RouletteSelector{}
	return Config{
		Population:  100,
		Rounds:      100,
		Generations: 100,
		Payoffs:     StandardPayoffs(),
		GA:          gaCfg,
		Seed:        seed,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Population < 2 || c.Population%2 != 0 {
		return fmt.Errorf("ipdrp: population must be even and ≥ 2, got %d", c.Population)
	}
	if c.Rounds < 1 || c.Generations < 1 {
		return fmt.Errorf("ipdrp: rounds and generations must be positive")
	}
	if err := c.Payoffs.Validate(); err != nil {
		return err
	}
	return c.GA.Validate()
}

// Result is the outcome of an IPDRP run.
type Result struct {
	// CoopSeries is the fraction of Cooperate moves per generation.
	CoopSeries []float64
	// FinalStrategies is the last generation's population.
	FinalStrategies []Strategy
}

type playerState struct {
	strat    Strategy
	played   bool
	prevMine Move
	prevOpp  Move
	payoff   float64
	moves    int
}

// Run evolves a population of IPDRP strategies and returns the cooperation
// trajectory. Deterministic for a given config.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation, checked once per
// generation before play — never inside one — so an uncancelled run is
// bit-identical to Run. On cancellation the partial Result (the
// cooperation series of every completed generation, no final population)
// is returned together with an error wrapping ctx.Err().
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	genomes := make([]ga.Individual, cfg.Population)
	for i := range genomes {
		genomes[i] = ga.Individual{Genome: bitstring.Random(r, Bits)}
	}
	res := &Result{} // the series grows as generations complete
	states := make([]playerState, cfg.Population)
	order := make([]int, cfg.Population)
	for i := range order {
		order[i] = i
	}

	for gen := 0; gen < cfg.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("ipdrp: interrupted before generation %d: %w", gen, err)
		}
		for i := range states {
			states[i] = playerState{strat: New(genomes[i].Genome.Clone())}
		}
		coopMoves, totalMoves := 0, 0
		for round := 0; round < cfg.Rounds; round++ {
			r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for k := 0; k < len(order); k += 2 {
				a, b := &states[order[k]], &states[order[k+1]]
				ma := moveOf(a)
				mb := moveOf(b)
				a.payoff += cfg.Payoffs.Score(ma, mb)
				b.payoff += cfg.Payoffs.Score(mb, ma)
				a.prevMine, a.prevOpp, a.played = ma, mb, true
				b.prevMine, b.prevOpp, b.played = mb, ma, true
				a.moves++
				b.moves++
				if ma == Cooperate {
					coopMoves++
				}
				if mb == Cooperate {
					coopMoves++
				}
				totalMoves += 2
			}
		}
		for i := range genomes {
			genomes[i].Fitness = states[i].payoff / float64(states[i].moves)
		}
		coopRate := float64(coopMoves) / float64(totalMoves)
		res.CoopSeries = append(res.CoopSeries, coopRate)
		if cfg.OnGeneration != nil {
			cfg.OnGeneration(gen, coopRate, ga.Stats(genomes))
		}
		if gen == cfg.Generations-1 {
			res.FinalStrategies = make([]Strategy, cfg.Population)
			for i := range states {
				res.FinalStrategies[i] = states[i].strat
			}
			break
		}
		next, err := ga.NextGeneration(genomes, &cfg.GA, r)
		if err != nil {
			return nil, err
		}
		for i := range genomes {
			genomes[i] = ga.Individual{Genome: next[i]}
		}
	}
	return res, nil
}

func moveOf(s *playerState) Move {
	if !s.played {
		return s.strat.FirstMove()
	}
	return s.strat.Next(s.prevMine, s.prevOpp)
}

// CensusEntry is one row of a final-population census.
type CensusEntry struct {
	Strategy Strategy
	Fraction float64
}

// Census tallies the final strategies, most frequent first (ties broken by
// key). With only 32 possible 5-bit strategies the census is the natural
// summary of an IPDRP run — [12] reports results this way.
func (r *Result) Census() []CensusEntry {
	counts := make(map[string]int)
	for _, s := range r.FinalStrategies {
		counts[s.Key()]++
	}
	out := make([]CensusEntry, 0, len(counts))
	for key, n := range counts {
		out = append(out, CensusEntry{
			Strategy: MustParse(key),
			Fraction: float64(n) / float64(len(r.FinalStrategies)),
		})
	}
	slices.SortFunc(out, func(a, b CensusEntry) int {
		if c := cmp.Compare(b.Fraction, a.Fraction); c != 0 {
			return c
		}
		return cmp.Compare(a.Strategy.Key(), b.Strategy.Key())
	})
	return out
}
