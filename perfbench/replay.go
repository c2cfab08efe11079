package main

import (
	"fmt"
	"time"

	"adhocga/internal/core"
	"adhocga/internal/island"
	"adhocga/internal/metrics"
	"adhocga/internal/rng"
	"adhocga/internal/scenario"
)

// The core replay: the traced pass steps replicate 0 of a scenario through
// the engine's public API — core.New, then EvaluateGeneration and
// Reproduce per generation, with a metrics.Collector counting the games —
// exactly as the experiment layer runs it inside a Session job. Its
// cooperation series must equal the job's, bit for bit, which both proves
// the replay measures the same computation and re-checks determinism.

// replayResult is one replayed replicate: its cooperation series and the
// time spent in each engine call.
type replayResult struct {
	coop     []float64
	island   bool
	eval     time.Duration // Σ EvaluateGeneration
	repro    time.Duration // Σ Reproduce
	gens     time.Duration // Σ generation (evaluate + bookkeeping + reproduce)
	total    time.Duration // the whole replicate, core.New included
	games    uint64        // normal-originated games the Collector counted
	genCount int
}

// masterSeeds reproduces the experiment layer's seed derivation for a
// scenario batch: one fallback per scenario drawn from the run seed, the
// scenario's own pinned seed winning when set.
func masterSeeds(specs []scenario.Spec, runSeed uint64) []uint64 {
	master := rng.New(runSeed)
	out := make([]uint64, len(specs))
	for i, s := range specs {
		out[i] = s.MasterSeed(master.Uint64())
	}
	return out
}

// replicateSeed is the seed of replicate rep of a scenario with the given
// master seed.
func replicateSeed(master uint64, rep int) uint64 {
	r := rng.New(master)
	var s uint64
	for i := 0; i <= rep; i++ {
		s = r.Uint64()
	}
	return s
}

// replay runs replicate 0 of the resolved spec. parent is the span the
// replicate's spans hang under.
func replay(tr *tracer, parent int64, label string, spec scenario.Spec, master uint64) (replayResult, error) {
	var out replayResult
	seed := replicateSeed(master, 0)
	t0 := time.Now()
	repSpan := tr.begin("replay.replicate", parent, label)
	defer tr.end(repSpan)
	if spec.Islands != nil {
		out.island = true
		icfg, err := spec.IslandConfig(seed)
		if err != nil {
			return out, err
		}
		last := time.Now()
		icfg.OnGeneration = func(gs island.GenerationStats) {
			now := time.Now()
			tr.add("island.generation", repSpan, label, last, now)
			last = now
			out.coop = append(out.coop, gs.Cooperation)
		}
		sp := tr.begin("island.new", repSpan, label)
		eng, err := island.New(icfg)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		last = time.Now()
		if _, err := eng.Run(); err != nil {
			return out, err
		}
		out.total = time.Since(t0)
		return out, nil
	}
	cfg, err := spec.Config(seed)
	if err != nil {
		return out, err
	}
	sp := tr.begin("core.new", repSpan, label)
	eng, err := core.New(cfg)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	collector := metrics.NewCollector()
	for gen := 0; gen < cfg.Generations; gen++ {
		g0 := time.Now()
		genSpan := tr.begin("core.generation", repSpan, label)
		sp := tr.begin("core.evaluate", genSpan, label)
		err := eng.EvaluateGeneration(collector)
		tr.end(sp)
		out.eval += time.Since(g0)
		if err != nil {
			return out, fmt.Errorf("%s: generation %d: %w", label, gen, err)
		}
		out.coop = append(out.coop, collector.CooperationLevel())
		for _, env := range collector.Environments() {
			out.games += env.NormalGames
		}
		if gen < cfg.Generations-1 {
			r0 := time.Now()
			sp = tr.begin("core.reproduce", genSpan, label)
			err = eng.Reproduce()
			tr.end(sp)
			out.repro += time.Since(r0)
			if err != nil {
				return out, fmt.Errorf("%s: reproduce %d: %w", label, gen, err)
			}
		}
		tr.end(genSpan)
		out.gens += time.Since(g0)
		out.genCount++
	}
	out.total = time.Since(t0)
	return out, nil
}

// sameSeries reports the first generation where two cooperation series
// differ bit for bit, or -1 when they are identical.
func sameSeries(a, b []float64) int {
	for i := 0; i < max(len(a), len(b)); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// replayTotals folds replayed replicates into the tournament and core
// per-layer metrics and the two lowest ladder rungs.
type replayTotals struct {
	eval, repro, gens, reps time.Duration
	games                   uint64
	serialGens              int
}

// add counts a serial replicate; island replays are checked, not timed
// here (island.gen_ms comes from the Session's own run).
func (t *replayTotals) add(r replayResult) {
	if r.island {
		return
	}
	t.eval += r.eval
	t.repro += r.repro
	t.gens += r.gens
	t.reps += r.total
	t.games += r.games
	t.serialGens += r.genCount
}

func (b *bench) recordReplay(t replayTotals, what string) {
	if t.serialGens == 0 {
		return
	}
	g := float64(t.serialGens)
	b.setLayer("tournament.ns_per_game", ratio(float64(t.eval.Nanoseconds()), float64(t.games)), "ns",
		fmt.Sprintf("EvaluateGeneration time ÷ %d normal-originated games counted by metrics.Collector (%s)", t.games, what))
	b.setLayer("tournament.games_per_gen", float64(t.games)/g, "count", fmt.Sprintf("normal-originated games ÷ %d generations (%s)", t.serialGens, what))
	b.setLayer("core.evaluate_ms_per_gen", ms(t.eval)/g, "ms", fmt.Sprintf("EvaluateGeneration, %d generations", t.serialGens))
	b.setLayer("core.reproduce_ms_per_gen", ms(t.repro)/g, "ms", fmt.Sprintf("Reproduce, %d generations (the last generation does not reproduce)", t.serialGens))
	b.setLayer("core.evaluate_share", ratio(float64(t.eval), float64(t.gens)), "share", fmt.Sprintf("evaluate ÷ generation time %.1f ms", ms(t.gens)))
	b.rung("ladder.evaluate_per_generation", "evaluate/generation", ms(t.eval)/g, ms(t.gens)/g, "ms", "EvaluateGeneration per gen", "generation per gen")
	b.rung("ladder.generation_per_replicate", "generation/replicate", ms(t.gens), ms(t.reps), "ms", "Σ generations", "Σ replayed replicates incl. core.New")
}
