// Quickstart: evolve forwarding strategies in a small CSN-free ad hoc
// network and watch cooperation emerge (the paper's case 1, scaled down to
// run in a couple of seconds).
package main

import (
	"context"
	"fmt"
	"log"

	"adhocga"
)

func main() {
	// The paper's parameterization (N=100, T=50, R=300), scaled down to 30
	// generations. TE1 is the CSN-free environment.
	cfg := adhocga.DefaultEvolutionConfig(
		adhocga.PaperEnvironments()[:1], // TE1 only
		adhocga.ShorterPaths(),
		42, // seed: runs are fully reproducible
	)
	cfg.Generations = 30
	cfg.OnGeneration = func(s adhocga.GenerationStats) {
		if s.Generation%5 == 0 {
			fmt.Printf("generation %2d: cooperation %5.1f%%  mean fitness %.2f\n",
				s.Generation, s.Cooperation*100, s.Fitness.MeanFitness)
		}
	}

	res, err := adhocga.Evolve(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	final := res.CoopSeries[len(res.CoopSeries)-1]
	fmt.Printf("\nfinal cooperation level: %.1f%% (paper's case 1: ~97%%)\n\n", final*100)

	// Inspect one evolved strategy: groups are trust 0..3 (LO MI HI each)
	// plus the unknown-node bit; 1 = forward.
	s := res.FinalStrategies[0]
	fmt.Printf("an evolved strategy: %s\n", s)
	fmt.Printf("  forwards for a trusted (level 3), low-activity source: %v\n",
		s.Decide(adhocga.Trust3, adhocga.ActivityLow) == adhocga.Forward)
	fmt.Printf("  forwards for an unknown source: %v\n",
		s.DecideUnknown() == adhocga.Forward)
}
