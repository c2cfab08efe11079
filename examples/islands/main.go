// Islands: shard one evolving population over four concurrently evolving
// islands with elite migration over a ring, and compare the island
// engine's aggregate view with the serial engine on the same budget.
//
// The run is deterministic for the fixed seed at any GOMAXPROCS; one
// island would be bit-identical to adhocga.Evolve.
package main

import (
	"context"
	"fmt"
	"log"

	"adhocga"
)

func main() {
	// The paper's case 1 environment (TE1, no selfish nodes), with the
	// population doubled to 200 so each of the 4 islands keeps a
	// 50-strategy share — enough to fill a T=50 tournament on its own.
	cfg := adhocga.DefaultEvolutionConfig(
		adhocga.PaperEnvironments()[:1],
		adhocga.ShorterPaths(),
		42,
	)
	cfg.PopulationSize = 200
	cfg.Generations = 30

	res, err := adhocga.EvolveIslands(context.Background(), adhocga.IslandConfig{
		Core:     cfg,
		Count:    4,
		Topology: adhocga.TopologyRing, // also: TopologyFullyConnected, TopologyRandomPairs
		Interval: 5,                    // migrate every 5 generations
		Migrants: 2,                    // 2 elite genomes per ring edge
		Replace:  adhocga.ReplaceWorst, // evict the destination's worst
		OnGeneration: func(s adhocga.IslandGenerationStats) {
			if s.Generation%10 != 0 {
				return
			}
			fmt.Printf("generation %2d: cooperation %5.1f%%  island best fitness:",
				s.Generation, s.Cooperation*100)
			for _, isl := range s.Islands {
				fmt.Printf(" %.2f", isl.BestFitness)
			}
			fmt.Println()
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Aggregate is the run-wide view in the serial engine's shape.
	final := res.Aggregate.CoopSeries[len(res.Aggregate.CoopSeries)-1]
	fmt.Printf("\nfinal cooperation level: %.1f%% (paper's case 1: ~97%%)\n", final*100)
	fmt.Printf("champion strategy: %s (fitness %.2f)\n",
		adhocga.NewStrategy(res.Champion.Genome), res.Champion.Fitness)
	fmt.Printf("migration: %d genomes moved over %d barriers\n",
		res.MigrantsMoved, res.MigrationEvents)

	// Per-island traces show how the subpopulations converged.
	for i, tr := range res.PerIsland {
		last := len(tr.Diversity) - 1
		fmt.Printf("island %d: final best %.2f  diversity %.3f\n",
			i, tr.Best[last], tr.Diversity[last])
	}
}
