package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"adhocga"
	"adhocga/internal/core"
	"adhocga/internal/experiment"
	"adhocga/internal/island"
	"adhocga/internal/scenario"
)

// evolve-batch: the paper's own computation. One ScenariosSpec — Table 4
// cases 1–4 at N=100, T=50, R=300 plus the case-1 4-island ring of the
// table4-islands family — is submitted through Session.Submit on a session
// whose pool has nproc slots, with no store and no HTTP. Batches run back
// to back until the pass length is up. Batch k runs under its own seed, so
// a run averages over many distinct replicates; every batch's result
// digest must repeat in the traced pass and in later runs of the seed.
const (
	// evolveGenerations is at least 11 so the island ring (interval 10)
	// migrates once and evaluates a generation after it.
	evolveGenerations = 12
	// evolveReps replicates per scenario: 10 units for 2 slots, ordered
	// costliest first so the pool stays full until the last short units.
	evolveReps   = 2
	evolveRounds = 300
	// evolveSetups is how many times set-up runs; setup_s is the median.
	evolveSetups = 25
	// warmSeed seeds the set-up's warm-up. It only pays lazy
	// initialisation, so every run warms up on the same work and setup_s
	// does not move with --seed.
	warmSeed = 1
)

// latencyScenario is the batch index of Table 4 case 3, whose generation
// intervals are the workload's latency. One scenario keeps the sample
// unimodal: the cases differ in cost by up to 6×, and a median over all of
// them lands between clusters.
const latencyScenario = 1

// evolveSpecs is the batch, costliest scenario first.
func evolveSpecs() []scenario.Spec {
	t4 := scenario.Table4()
	specs := []scenario.Spec{t4[3], t4[2], scenario.Table4Islands()[0], t4[1], t4[0]}
	for i := range specs {
		specs[i].Generations = evolveGenerations
		specs[i].Rounds = evolveRounds
		specs[i].Repetitions = evolveReps
	}
	return specs
}

var evolveScale = adhocga.Scale{Name: "perfbench", Generations: evolveGenerations, Rounds: evolveRounds, Repetitions: evolveReps}

// batchSeed is batch k's master seed, derived from the workload seed (and
// never 0, which the experiment layer reads as "unset").
func batchSeed(seed uint64, k int) uint64 { return splitmix64(splitmix64(seed)+uint64(k)) | 1 }

// evolveSetup builds a session, decodes the batch from its scenario JSON
// (the path adhocd submissions take) and runs a one-generation warm-up of
// case 1, so lazy initialisation is paid before timing.
func evolveSetup(ctx context.Context, doc []byte) (*adhocga.Session, []adhocga.ScenarioRun, error) {
	sess := adhocga.NewSession(adhocga.WithPoolSize(runtime.NumCPU()), adhocga.WithLogger(slog.New(slog.DiscardHandler)))
	specs, err := scenario.Load(bytes.NewReader(doc))
	if err != nil {
		sess.Close()
		return nil, nil, err
	}
	runs := make([]adhocga.ScenarioRun, len(specs))
	for i, s := range specs {
		runs[i] = adhocga.ScenarioRun{Spec: s}
	}
	warm := scenario.Table4()[0]
	warm.Generations, warm.Rounds, warm.Repetitions = 1, evolveRounds, 1
	j, err := sess.Submit(ctx, adhocga.ScenariosSpec{Runs: []adhocga.ScenarioRun{{Spec: warm}}, Defaults: evolveScale, Opts: adhocga.RunOptions{Seed: warmSeed}})
	if err == nil {
		err = j.Wait(ctx)
	}
	if err != nil {
		sess.Close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return sess, runs, nil
}

// repObs is one replicate as its generation callbacks reported it: when
// each generation finished and the cooperation it measured.
type repObs struct {
	times  []time.Time
	coop   []float64
	island bool
}

// batchObs is one batch as the benchmark observed it.
type batchObs struct {
	start, end   time.Time
	submit       time.Duration // Session.Submit call
	queueWait    time.Duration // Submit to the first event
	events       int
	reps         map[[2]int]*repObs
	digest       string
	busy, slots  float64 // Σ sampled PoolBusy and PoolSize
	tailIdle     time.Duration
	intervalsMS  []float64 // case 3 generation intervals
	islandMS     []float64 // island-model generation intervals
	replicateSec []float64
	repSum       time.Duration
}

// evolveBatch submits the batch once under seed and follows it to done.
// Generation times come from the RunOptions observation hooks, which the
// pool workers call as each generation finishes; the event stream is
// drained as a Session user would.
func evolveBatch(ctx context.Context, sess *adhocga.Session, runs []adhocga.ScenarioRun, seed uint64, tr *tracer) (*batchObs, error) {
	o := &batchObs{reps: map[[2]int]*repObs{}}
	var mu sync.Mutex
	var orderErr error
	note := func(scen, rep, gen int, coop float64, isl bool) {
		at := time.Now()
		mu.Lock()
		defer mu.Unlock()
		k := [2]int{scen, rep}
		r := o.reps[k]
		if r == nil {
			r = &repObs{island: isl}
			o.reps[k] = r
		}
		if gen != len(r.times) && orderErr == nil {
			orderErr = fmt.Errorf("scenario %d rep %d: generation %d reported after %d", scen, rep, gen, len(r.times))
		}
		r.times = append(r.times, at)
		r.coop = append(r.coop, coop)
	}
	spec := adhocga.ScenariosSpec{Runs: runs, Defaults: evolveScale, Opts: adhocga.RunOptions{
		Seed: seed,
		OnGeneration: func(scen, rep int, gs core.GenerationStats) {
			note(scen, rep, gs.Generation, gs.Cooperation, false)
		},
		OnIslandGeneration: func(scen, rep int, gs island.GenerationStats) {
			note(scen, rep, gs.Generation, gs.Cooperation, true)
		},
	}}
	jobSpan := tr.begin("session.job", 0, "")
	o.start = time.Now()
	sp := tr.begin("session.submit", jobSpan, "")
	j, err := sess.Submit(ctx, spec)
	tr.end(sp)
	o.submit = time.Since(o.start)
	if err != nil {
		return nil, err
	}
	var stopPool func() poolSample
	if tr != nil {
		stopPool = samplePool(sess)
	}
	for range j.EventsContext(ctx) {
		if o.events == 0 {
			o.queueWait = time.Since(o.start)
		}
		o.events++
	}
	err = j.Wait(ctx)
	o.end = time.Now()
	if stopPool != nil {
		ps := stopPool()
		o.busy, o.slots = ps.busy, ps.slots
		if ps.lastFull.IsZero() {
			ps.lastFull = o.start
		}
		o.tailIdle = o.end.Sub(ps.lastFull)
	}
	tr.end(jobSpan)
	if err != nil {
		return nil, fmt.Errorf("batch job %s: %w", j.ID(), err)
	}
	if orderErr != nil {
		return nil, orderErr
	}
	results, ok := j.Result().([]*experiment.CaseResult)
	if !ok || len(results) != len(runs) {
		return nil, fmt.Errorf("batch job %s: result is %T", j.ID(), j.Result())
	}
	h := sha256.New()
	for _, r := range results {
		if err := json.NewEncoder(h).Encode(r.ToJSON(3)); err != nil {
			return nil, fmt.Errorf("digest: %w", err)
		}
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	if len(o.reps) != len(runs)*evolveReps {
		return nil, fmt.Errorf("batch job %s: saw %d replicates, want %d", j.ID(), len(o.reps), len(runs)*evolveReps)
	}
	for k, r := range o.reps {
		if len(r.times) != evolveGenerations {
			return nil, fmt.Errorf("scenario %d rep %d: %d generations, want %d", k[0], k[1], len(r.times), evolveGenerations)
		}
		for i := 1; i < len(r.times); i++ {
			d := ms(r.times[i].Sub(r.times[i-1]))
			if k[0] == latencyScenario {
				o.intervalsMS = append(o.intervalsMS, d)
			}
			if r.island {
				o.islandMS = append(o.islandMS, d)
			}
		}
		// A replicate starts one mean generation interval before its
		// first callback: the callback follows the first evaluation.
		last := r.times[len(r.times)-1]
		start := r.times[0].Add(-last.Sub(r.times[0]) / time.Duration(len(r.times)-1))
		o.replicateSec = append(o.replicateSec, last.Sub(start).Seconds())
		o.repSum += last.Sub(start)
		tr.add("experiment.replicate", jobSpan, fmt.Sprintf("s%d/r%d", k[0], k[1]), start, last)
	}
	return o, nil
}

// poolTick is how often samplePool polls Session.Stats.
const poolTick = 2 * time.Millisecond

// poolSample is what samplePool gathered: Σ sampled busy slots and pool
// slots, and the last tick at which every slot was busy.
type poolSample struct {
	busy, slots float64
	lastFull    time.Time
}

// samplePool polls Session.Stats every poolTick until stop is called.
func samplePool(sess *adhocga.Session) (stop func() poolSample) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var ps poolSample
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(poolTick)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				st := sess.Stats()
				ps.busy += float64(st.PoolBusy)
				ps.slots += float64(st.PoolSize)
				if st.PoolBusy >= st.PoolSize {
					ps.lastFull = now
				}
			}
		}
	}()
	return func() poolSample {
		close(done)
		wg.Wait()
		return ps
	}
}

func runEvolve(b *bench) error {
	specs := evolveSpecs()
	doc, err := json.Marshal(specs)
	if err != nil {
		return err
	}
	ctx := b.ctx

	var setups []float64
	var sess *adhocga.Session
	var runs []adhocga.ScenarioRun
	for i := 0; i < evolveSetups; i++ {
		if sess != nil {
			sess.Close()
		}
		t0 := time.Now()
		sess, runs, err = evolveSetup(ctx, doc)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sess.Close()

	untraced, err := evolvePass(ctx, b, sess, runs, nil)
	if err != nil {
		return err
	}
	rate := untraced.rate()
	b.printf("end-to-end (untraced):\n")
	b.setE2E("setup_s", "setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups: NewSession + scenario decode + 1-generation warm-up", len(setups)))
	b.setE2E("throughput_per_s", "gen_per_s", rate, "1/s", fmt.Sprintf("%d replicate-generations in %.2f s, %d batches of %d scenarios × %d reps × %d gens",
		untraced.repGens, untraced.wall.Seconds(), len(untraced.batches), len(specs), evolveReps, evolveGenerations))
	if err := b.latency("interval between generation callbacks of a case 3 replicate", untraced.intervals, "gen_interval_ms.p50", "gen_interval_ms.tail"); err != nil {
		return err
	}
	b.recordRuntime(untraced.samp, true)
	if !b.traced {
		return nil
	}

	b.tr = newTracer()
	tp, err := evolvePass(ctx, b, sess, runs, b.tr)
	if err != nil {
		return err
	}
	b.printf("per-layer (traced pass, %d batches):\n", len(tp.batches))
	b.traceOverhead("gen_per_s", rate, tp.rate(), true)
	b.recordRuntime(tp.samp, false)
	var submits, waits, reps, islands []float64
	var busy, slots float64
	var tail, repSum, jobSum time.Duration
	events := 0
	for _, o := range tp.batches {
		submits = append(submits, ms(o.submit))
		waits = append(waits, ms(o.queueWait))
		reps = append(reps, o.replicateSec...)
		islands = append(islands, o.islandMS...)
		busy += o.busy
		slots += o.slots
		tail += o.tailIdle
		repSum += o.repSum
		jobSum += o.end.Sub(o.start)
		events += o.events
	}
	nb := float64(len(tp.batches))
	b.setLayer("session.submit_ms", median(submits), "ms", fmt.Sprintf("median Session.Submit call, %d batches", len(submits)))
	b.setLayer("session.queue_wait_ms", median(waits), "ms", "median Submit → first event")
	b.setLayer("island.gen_ms", median(islands), "ms", fmt.Sprintf("median interval between island generations, %d intervals", len(islands)))
	b.setLayer("experiment.replicate_s.p50", median(reps), "s", fmt.Sprintf("%d replicates; start = first callback − one mean generation interval", len(reps)))
	b.setLayer("experiment.replicate_s.max", maxOf(reps), "s", "slowest replicate, same base")
	b.setLayer("runner.pool_busy_share", ratio(busy, slots), "share", fmt.Sprintf("Σ PoolBusy ÷ Σ PoolSize, Session.Stats every %v", poolTick))
	b.setLayer("runner.tail_idle_s", tail.Seconds()/nb, "s", "per batch: done − last sample with every slot busy")
	st0, st1 := tp.streamBefore, tp.streamAfter
	b.setLayer("hub.events_per_job", float64(st1.Emitted-st0.Emitted)/nb, "count", fmt.Sprintf("Session.StreamTotals emitted ÷ %d jobs (%d delivered to the subscriber)", len(tp.batches), events))
	b.setLayer("hub.resyncs", float64(st1.Resyncs-st0.Resyncs), "count", "StreamTotals resyncs during the pass")
	b.setLayer("hub.evictions", float64(st1.Evictions-st0.Evictions), "count", "StreamTotals evictions during the pass")
	b.setLayer("hub.max_stall_ms", ms(st1.MaxStall), "ms", "StreamTotals lifetime max producer stall")
	b.rung("ladder.replicate_per_job", "replicate/job", repSum.Seconds(), jobSum.Seconds()*float64(sess.PoolSize()), "s",
		"Σ replicate spans", fmt.Sprintf("Σ job time × %d slots", sess.PoolSize()))

	// Core replay of replicate 0 of every scenario, checked against the
	// first traced batch.
	first := tp.batches[0]
	seeds := masterSeeds(specs, batchSeed(b.seed, 0))
	var tot replayTotals
	for i, s := range specs {
		res, err := replay(b.tr, 0, fmt.Sprintf("s%d/r0", i), s.Resolve(evolveScale), seeds[i])
		b.op(err)
		if err != nil {
			continue
		}
		if at := sameSeries(res.coop, first.reps[[2]int{i, 0}].coop); at >= 0 {
			b.fail("replay of %q diverges from the Session at generation %d", s.Name, at)
		}
		tot.add(res)
	}
	b.printf("core replay: replicate 0 of %d scenarios checked bit for bit against the Session\n", len(specs))
	b.recordReplay(tot, "cases 1-4 at N=100 T=50 R=300")
	return nil
}

// evolveRun is one measured pass of evolve-batch.
type evolveRun struct {
	batches                   []*batchObs
	repGens                   int
	wall                      time.Duration
	intervals                 []float64
	samp                      *sampler
	streamBefore, streamAfter adhocga.StreamTotals
}

func (r *evolveRun) rate() float64 { return float64(r.repGens) / r.wall.Seconds() }

// evolvePass runs batches 0, 1, … back to back until the pass length is
// up, checking each batch's digest.
func evolvePass(ctx context.Context, b *bench, sess *adhocga.Session, runs []adhocga.ScenarioRun, tr *tracer) (*evolveRun, error) {
	r := &evolveRun{streamBefore: sess.StreamTotals()}
	r.samp = startSampler()
	defer r.samp.finish()
	t0 := time.Now()
	for k := 0; k == 0 || time.Since(t0) < b.passLength(); k++ {
		o, err := evolveBatch(ctx, sess, runs, batchSeed(b.seed, k), tr)
		if err == nil {
			err = b.checkDigest(fmt.Sprintf("evolve-batch/seed=%d/batch=%d", b.seed, k), o.digest)
		}
		b.op(err)
		if err != nil {
			return nil, err
		}
		if tr == nil {
			b.printf("digest evolve-batch seed=%d batch=%d: %s\n", b.seed, k, o.digest)
		}
		r.batches = append(r.batches, o)
		r.repGens += len(runs) * evolveReps * evolveGenerations
		r.intervals = append(r.intervals, o.intervalsMS...)
	}
	r.wall = time.Since(t0)
	r.streamAfter = sess.StreamTotals()
	return r, nil
}
