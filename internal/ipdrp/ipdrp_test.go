package ipdrp

import (
	"context"
	"testing"

	"adhocga/internal/bitstring"
	"adhocga/internal/ga"
	"adhocga/internal/rng"
)

func TestStrategyBitLayout(t *testing.T) {
	// "1 1010": first move C; respond C after (C,C), D after (C,D),
	// C after (D,C), D after (D,D) — that is TFT applied to own history.
	s := MustParse("11010")
	if s.FirstMove() != Cooperate {
		t.Error("first move should be C")
	}
	cases := []struct {
		mine, opp Move
		want      Move
	}{
		{Cooperate, Cooperate, Cooperate},
		{Cooperate, Defect, Defect},
		{Defect, Cooperate, Cooperate},
		{Defect, Defect, Defect},
	}
	for _, c := range cases {
		if got := s.Next(c.mine, c.opp); got != c.want {
			t.Errorf("Next(%v,%v) = %v, want %v", c.mine, c.opp, got, c.want)
		}
	}
	if !s.Genome().Equal(TitForTat().Genome()) {
		t.Error("11010 should equal TitForTat()")
	}
}

func TestCanonicalStrategies(t *testing.T) {
	allc, alld := AllC(), AllD()
	for _, mine := range []Move{Cooperate, Defect} {
		for _, opp := range []Move{Cooperate, Defect} {
			if allc.Next(mine, opp) != Cooperate {
				t.Error("AllC defected")
			}
			if alld.Next(mine, opp) != Defect {
				t.Error("AllD cooperated")
			}
		}
	}
	if allc.FirstMove() != Cooperate || alld.FirstMove() != Defect {
		t.Error("first moves wrong")
	}
	if Cooperate.String() != "C" || Defect.String() != "D" {
		t.Error("move strings wrong")
	}
	if TitForTat().String() != "1 1010" {
		t.Errorf("TFT renders as %q", TitForTat().String())
	}
}

func TestNewPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(bitstring.New(13))
}

func TestPayoffs(t *testing.T) {
	p := StandardPayoffs()
	if err := p.Validate(); err != nil {
		t.Fatalf("standard payoffs invalid: %v", err)
	}
	if p.Score(Cooperate, Cooperate) != 3 || p.Score(Defect, Defect) != 1 {
		t.Error("symmetric scores wrong")
	}
	if p.Score(Defect, Cooperate) != 5 || p.Score(Cooperate, Defect) != 0 {
		t.Error("asymmetric scores wrong")
	}
	bad := Payoffs{Temptation: 1, Reward: 2, Punishment: 3, Sucker: 4}
	if err := bad.Validate(); err == nil {
		t.Error("non-dilemma payoffs accepted")
	}
	// 2R > T+S violation.
	bad = Payoffs{Temptation: 7, Reward: 3, Punishment: 1, Sucker: 0}
	if err := bad.Validate(); err == nil {
		t.Error("2R <= T+S accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	odd := DefaultConfig(1)
	odd.Population = 7
	if err := odd.Validate(); err == nil {
		t.Error("odd population accepted")
	}
	zero := DefaultConfig(1)
	zero.Rounds = 0
	if err := zero.Validate(); err == nil {
		t.Error("zero rounds accepted")
	}
}

func TestRunMechanics(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Population = 20
	cfg.Rounds = 30
	cfg.Generations = 10
	var hookGens int
	cfg.OnGeneration = func(gen int, coop float64, _ ga.PopulationStats) {
		hookGens++
		if coop < 0 || coop > 1 {
			t.Errorf("generation %d cooperation rate %v", gen, coop)
		}
	}
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoopSeries) != 10 {
		t.Errorf("series length %d", len(res.CoopSeries))
	}
	if hookGens != 10 {
		t.Errorf("hook called %d times", hookGens)
	}
	if len(res.FinalStrategies) != 20 {
		t.Errorf("%d final strategies", len(res.FinalStrategies))
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() []float64 {
		cfg := DefaultConfig(11)
		cfg.Population = 20
		cfg.Rounds = 20
		cfg.Generations = 5
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.CoopSeries
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("series diverged at %d", i)
		}
	}
}

func TestDefectionDominatesUnderRandomPairing(t *testing.T) {
	// The central finding of [12]'s baseline: under random pairing with
	// single-round memory and no partner fidelity, defection takes over
	// (reciprocity cannot target the defector that hurt you). Late
	// cooperation must fall well below the random-start ~50%.
	cfg := DefaultConfig(5)
	cfg.Population = 60
	cfg.Rounds = 50
	cfg.Generations = 40
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	late := res.CoopSeries[len(res.CoopSeries)-1]
	if late > 0.25 {
		t.Errorf("late cooperation %v; defection should dominate under random pairing", late)
	}
}

func TestAllCPopulationStaysCooperative(t *testing.T) {
	// Degenerate dynamics check at the game level: a population seeded
	// all-C via zero mutation/crossover playing one generation must
	// produce 100% cooperation.
	cfg := DefaultConfig(6)
	cfg.Population = 10
	cfg.Rounds = 10
	cfg.Generations = 1
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A random first generation cooperates at roughly 50%.
	if res.CoopSeries[0] < 0.2 || res.CoopSeries[0] > 0.8 {
		t.Errorf("random-start cooperation %v looks wrong", res.CoopSeries[0])
	}
}

func TestKeyUniqueness(t *testing.T) {
	seen := map[string]bool{}
	r := rng.New(7)
	for i := 0; i < 200; i++ {
		seen[Random(r).Key()] = true
	}
	// Only 32 distinct 5-bit strategies exist.
	if len(seen) > 32 {
		t.Fatalf("%d distinct keys from a 5-bit space", len(seen))
	}
	if len(seen) < 20 {
		t.Errorf("only %d distinct strategies sampled; RNG looks broken", len(seen))
	}
}

func TestCensus(t *testing.T) {
	res := &Result{FinalStrategies: []Strategy{AllD(), AllD(), AllD(), AllC()}}
	census := res.Census()
	if len(census) != 2 {
		t.Fatalf("%d census entries", len(census))
	}
	if !census[0].Strategy.Genome().Equal(AllD().Genome()) || census[0].Fraction != 0.75 {
		t.Errorf("top entry %+v", census[0])
	}
	// Fractions sum to 1.
	sum := 0.0
	for _, e := range census {
		sum += e.Fraction
	}
	if sum != 1 {
		t.Errorf("fractions sum to %v", sum)
	}
}

func TestCensusAfterEvolution(t *testing.T) {
	cfg := DefaultConfig(12)
	cfg.Population = 40
	cfg.Rounds = 40
	cfg.Generations = 30
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	census := res.Census()
	if len(census) == 0 {
		t.Fatal("empty census")
	}
	// Under random pairing the dominant strategies defect after mutual
	// defection (last response bit 0) — the absorbing behavior.
	if census[0].Strategy.Next(Defect, Defect) != Defect {
		t.Errorf("dominant strategy %s cooperates after (D,D)", census[0].Strategy)
	}
}

func BenchmarkIPDRPGeneration(b *testing.B) {
	cfg := DefaultConfig(1)
	cfg.Generations = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
