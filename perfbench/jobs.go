package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"adhocga"
	"adhocga/internal/core"
	"adhocga/internal/jobstore"
	"adhocga/internal/league"
	"adhocga/internal/scenario"
	"adhocga/internal/ws"
)

// adhocd-jobs: the write path. Two closed-loop clients over loopback
// HTTP/1.1 keep-alive drive a file-store, champions-enabled daemon: each
// submits a small seeded scenario job, follows it to done — client 0 over
// NDJSON /events, client 1 over /ws — and GETs its status. Every
// verifyEvery-th job is also verified, and every leagueEvery-th job is
// followed by a league over a few of the client's freshly harvested
// champions.
//
// The job deck's ranges, verifyEvery, leagueEvery and leagueSeats are
// assumptions, not measured adhocd traffic. The sizes keep one job to tens
// of milliseconds of compute, so the WAL, streams, verify and league carry
// a visible share of done time; verify and league recur often enough that
// a pass holds tens of samples of each.
const (
	verifyEvery = 4
	leagueEvery = 6
	// leagueSeats bounds the champions seated per league; the three
	// scripted baselines join them.
	leagueSeats = 4
	jobsSetups  = 25
)

// jobPlan is one generated submission.
type jobPlan struct {
	name string
	spec scenario.Spec
	seed uint64
	body []byte
}

// jobShape is the size of one job: population, environment count, path
// mode, generations, rounds and replicates.
type jobShape struct {
	pop, envs, gens, rounds, reps int
	lp                            bool
}

// jobDeck is the multiset of job shapes each client cycles through in a
// seeded order: populations 40–100, 1–4 environments, SP and LP, with
// generations (3–8), rounds (20–60) and replicates (1–2) spread evenly
// over the deck. Every seed draws the same mix of job sizes, so a run's
// figures move with the code, not with which sizes the seed happened to
// favour; the seed decides the order, the CSN counts, the tournament sizes
// and every GA seed.
func jobDeck() []jobShape {
	var deck []jobShape
	i := 0
	for _, pop := range []int{40, 60, 80, 100} {
		for envs := 1; envs <= 4; envs++ {
			for _, lp := range []bool{false, true} {
				deck = append(deck, jobShape{pop: pop, envs: envs, lp: lp,
					gens: 3 + i%6, rounds: 20 + 10*(i%5), reps: 1 + (i/3)%2})
				i++
			}
		}
	}
	return deck
}

// dealer deals job shapes from the deck, reshuffling it each time round.
type dealer struct {
	r    *rand.Rand
	deck []jobShape
	next int
}

func (d *dealer) deal() jobShape {
	if d.next == 0 {
		d.r.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
	}
	s := d.deck[d.next]
	d.next = (d.next + 1) % len(d.deck)
	return s
}

// planJob builds one small scenario job of the given shape. Checkpoints
// are on so every job harvests champions; parallelism 1 keeps the event
// log archived and byte-comparable by verify.
func planJob(r *rand.Rand, name string, sh jobShape) (jobPlan, error) {
	tsize := 20 + r.IntN(21)
	envs := make([]scenario.EnvSpec, sh.envs)
	for i := range envs {
		envs[i] = scenario.EnvSpec{CSN: r.IntN(tsize/2 + 1)}
	}
	mode := "SP"
	if sh.lp {
		mode = "LP"
	}
	spec := scenario.Spec{
		Name:           name,
		Environments:   envs,
		PathMode:       mode,
		Population:     sh.pop,
		TournamentSize: tsize,
		Generations:    sh.gens,
		Rounds:         sh.rounds,
		Repetitions:    sh.reps,
		Checkpoints:    2,
	}
	p := jobPlan{name: name, spec: spec, seed: r.Uint64() | 1}
	body, err := json.Marshal(map[string]any{"scenarios": []scenario.Spec{spec}, "seed": p.seed, "parallelism": 1})
	p.body = body
	return p, err
}

// champions lists the archive IDs a finished job harvested: every
// checkpoint generation of every replicate.
func (p jobPlan) champions(jobID string) []string {
	var ids []string
	for rep := 0; rep < p.spec.Repetitions; rep++ {
		for gen := 0; gen < p.spec.Generations; gen++ {
			if core.CheckpointDue(gen, p.spec.Checkpoints, p.spec.Generations) {
				ids = append(ids, league.ChampionID(jobID, p.name, rep, gen))
			}
		}
	}
	return ids
}

// wireEvent is the part of an event the clients read.
type wireEvent struct {
	Seq        int    `json:"seq"`
	Kind       string `json:"kind"`
	Generation *struct {
		Scenario, Rep, Gen int
		Coop               float64
	} `json:"generation"`
	Done *struct {
		State string `json:"state"`
		Error string `json:"error"`
	} `json:"done"`
}

// jobResult is what one client saw of one job.
type jobResult struct {
	id        string
	plan      jobPlan
	submitted time.Time // POST sent
	accepted  time.Time // 202 read
	doneAt    time.Time // done event read
	seqAt     map[int]time.Time
	coop      []float64 // scenario 0, rep 0, in generation order
	bytes     int64     // NDJSON bytes read
	frames    int       // WebSocket frames read
}

// jobsClient is one closed-loop client.
type jobsClient struct {
	b      *bench
	c      *client
	useWS  bool
	rng    *rand.Rand
	st     *stack
	inproc bool // traced: also subscribe in-process to time delivery

	mu        sync.Mutex
	jobs      []*jobResult
	submitMS  []float64
	doneMS    []float64
	verifyMS  []float64
	verifyRat []float64
	leagueMS  []float64
	perMatch  []float64
	deliverMS []float64
	waitMS    []float64
	jobShare  [2]float64 // Σ in-process job time, Σ client done time
	bytes     int64
	frames    int
}

// run loops jobs until the deadline, finishing the one in flight.
func (jc *jobsClient) run(ctx context.Context, idx int, deadline time.Time) {
	var recent []*jobResult
	deck := &dealer{r: jc.rng, deck: jobDeck()}
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		plan, err := planJob(jc.rng, fmt.Sprintf("pb-c%d-j%d", idx, i), deck.deal())
		if err != nil {
			jc.b.op(err)
			return
		}
		res, err := jc.job(ctx, plan)
		jc.b.op(err)
		if err != nil {
			continue
		}
		recent = append(recent, res)
		if len(recent) > 2 {
			recent = recent[1:]
		}
		if i%verifyEvery == verifyEvery-1 {
			jc.b.op(jc.verify(res))
		}
		if i%leagueEvery == leagueEvery-1 {
			jc.b.op(jc.league(ctx, recent))
		}
	}
}

// job submits one plan and follows it to done.
func (jc *jobsClient) job(ctx context.Context, plan jobPlan) (*jobResult, error) {
	tr := jc.c.tr
	jobSpan := tr.begin("client.job", 0, plan.name)
	defer tr.end(jobSpan)
	res := &jobResult{plan: plan, seqAt: map[int]time.Time{}, submitted: time.Now()}
	rep, err := jc.c.do("POST", "/v1/jobs", plan.body, jobSpan, plan.name)
	res.accepted = time.Now()
	if err != nil {
		return nil, err
	}
	if rep.status != http.StatusAccepted {
		return nil, fmt.Errorf("submit: %d %s", rep.status, rep.body)
	}
	var info struct{ ID string }
	if err := json.Unmarshal(rep.body, &info); err != nil || info.ID == "" {
		return nil, fmt.Errorf("submit: no job id in %s", rep.body)
	}
	res.id = info.ID
	var wg sync.WaitGroup
	var inproc map[int]time.Time
	if jc.inproc {
		j, ok := jc.st.session.Job(res.id)
		if !ok {
			return nil, fmt.Errorf("job %s not in the session", res.id)
		}
		inproc = map[int]time.Time{}
		sub := j.Subscribe(ctx, adhocga.SubscribeOptions{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range sub.C {
				inproc[e.Seq] = time.Now()
			}
		}()
	}
	if jc.useWS {
		err = jc.followWS(res, jobSpan)
	} else {
		err = jc.followNDJSON(res, jobSpan)
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	st, err := jc.c.do("GET", "/v1/jobs/"+res.id, nil, jobSpan, res.id)
	if err != nil {
		return nil, err
	}
	var status struct {
		State   string
		Results []struct{ Name string }
	}
	if st.status != http.StatusOK || json.Unmarshal(st.body, &status) != nil || status.State != "done" ||
		len(status.Results) != 1 || status.Results[0].Name != plan.name {
		return nil, fmt.Errorf("status of %s: %d %s", res.id, st.status, st.body)
	}

	jc.mu.Lock()
	defer jc.mu.Unlock()
	jc.jobs = append(jc.jobs, res)
	jc.submitMS = append(jc.submitMS, ms(rep.dur))
	done := res.doneAt.Sub(res.submitted)
	jc.doneMS = append(jc.doneMS, ms(done))
	jc.bytes += res.bytes
	jc.frames += res.frames
	if inproc != nil {
		for seq, at := range res.seqAt {
			if in, ok := inproc[seq]; ok {
				jc.deliverMS = append(jc.deliverMS, ms(at.Sub(in)))
			}
		}
		if first, ok := inproc[0]; ok {
			jc.waitMS = append(jc.waitMS, ms(first.Sub(res.accepted)))
		}
		if last, ok := inproc[len(inproc)-1]; ok {
			jc.jobShare[0] += ms(last.Sub(res.accepted))
			jc.jobShare[1] += ms(done)
		}
	}
	return res, nil
}

// observe notes one event a client read.
func (res *jobResult) observe(line []byte, at time.Time) (bool, error) {
	var e wireEvent
	if err := json.Unmarshal(line, &e); err != nil {
		return false, fmt.Errorf("job %s: bad event %q: %w", res.id, line, err)
	}
	res.seqAt[e.Seq] = at
	if g := e.Generation; g != nil && g.Scenario == 0 && g.Rep == 0 && g.Gen == len(res.coop) {
		res.coop = append(res.coop, g.Coop)
	}
	if e.Kind != "done" {
		return false, nil
	}
	if e.Done == nil || e.Done.State != "done" {
		return true, fmt.Errorf("job %s ended %s", res.id, line)
	}
	res.doneAt = at
	return true, nil
}

// followNDJSON reads the job's archival NDJSON stream to its done event.
func (jc *jobsClient) followNDJSON(res *jobResult, parent int64) error {
	sawDone := false
	_, err := jc.c.stream("GET", "/v1/jobs/"+res.id+"/events", nil, parent, res.id, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("events: status %d", resp.StatusCode)
		}
		n, err := lines(resp.Body, func(line []byte, at time.Time) error {
			done, err := res.observe(line, at)
			sawDone = sawDone || done
			return err
		})
		res.bytes = n
		return err
	})
	if err == nil && !sawDone {
		err = fmt.Errorf("job %s: NDJSON stream ended without done", res.id)
	}
	return err
}

// followWS watches the job over WebSocket to its done event. The client
// drops its idle HTTP connection first, so it never holds two.
func (jc *jobsClient) followWS(res *jobResult, parent int64) error {
	jc.c.close()
	sp := jc.c.tr.begin("client WS", parent, res.id)
	defer jc.c.tr.end(sp)
	conn, err := ws.Dial("ws" + strings.TrimPrefix(jc.c.base, "http") + "/v1/jobs/" + res.id + "/ws")
	if err != nil {
		return fmt.Errorf("ws dial: %w", err)
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return err
	}
	for {
		op, msg, err := conn.NextMessage()
		if err != nil {
			return fmt.Errorf("job %s: ws stream ended without done: %w", res.id, err)
		}
		if op != ws.OpText {
			continue
		}
		res.frames++
		done, err := res.observe(msg, time.Now())
		if err != nil || done {
			return err
		}
	}
}

// verify replays a finished job through POST /verify; the verdict must be
// "match".
func (jc *jobsClient) verify(res *jobResult) error {
	rep, err := jc.c.do("POST", "/v1/jobs/"+res.id+"/verify", nil, 0, res.id)
	if err != nil {
		return err
	}
	var v struct{ Verdict, Mode string }
	if rep.status != http.StatusOK || json.Unmarshal(rep.body, &v) != nil || v.Verdict != "match" || v.Mode != "byte-compare" {
		return fmt.Errorf("verify %s: %d %s", res.id, rep.status, rep.body)
	}
	jc.mu.Lock()
	jc.verifyMS = append(jc.verifyMS, ms(rep.dur))
	if rep.handler > 0 {
		jc.verifyRat = append(jc.verifyRat, ratio(ms(rep.handler), ms(res.doneAt.Sub(res.submitted))))
	}
	jc.mu.Unlock()
	return nil
}

// league seats the last champions of the client's recent jobs (plus the
// baselines), follows the league job to done and checks its table.
func (jc *jobsClient) league(ctx context.Context, recent []*jobResult) error {
	var ids []string
	for i := len(recent) - 1; i >= 0 && len(ids) < leagueSeats; i-- {
		all := recent[i].plan.champions(recent[i].id)
		for k := len(all) - 1; k >= 0 && len(ids) < leagueSeats; k-- {
			ids = append(ids, all[k])
		}
	}
	body, err := json.Marshal(map[string]any{"champions": ids, "baselines": true, "seed": jc.rng.Uint64() | 1})
	if err != nil {
		return err
	}
	sp := jc.c.tr.begin("client.league", 0, "")
	defer jc.c.tr.end(sp)
	t0 := time.Now()
	rep, err := jc.c.do("POST", "/v1/league", body, sp, "")
	if err != nil {
		return err
	}
	var info struct{ ID string }
	if rep.status != http.StatusAccepted || json.Unmarshal(rep.body, &info) != nil || info.ID == "" {
		return fmt.Errorf("league submit: %d %s", rep.status, rep.body)
	}
	res := &jobResult{id: info.ID, seqAt: map[int]time.Time{}, submitted: t0}
	if jc.useWS {
		err = jc.followWS(res, sp)
	} else {
		err = jc.followNDJSON(res, sp)
	}
	if err != nil {
		return err
	}
	st, err := jc.c.do("GET", "/v1/jobs/"+res.id, nil, sp, res.id)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	var status struct {
		State  string
		League *struct {
			Standings []struct{ Name string }
			Matches   int
		}
	}
	if st.status != http.StatusOK || json.Unmarshal(st.body, &status) != nil || status.State != "done" ||
		status.League == nil || len(status.League.Standings) != len(ids)+3 || status.League.Matches == 0 {
		return fmt.Errorf("league %s: %d %s", res.id, st.status, st.body)
	}
	jc.mu.Lock()
	jc.leagueMS = append(jc.leagueMS, ms(elapsed))
	jc.perMatch = append(jc.perMatch, ms(elapsed)/float64(status.League.Matches))
	jc.mu.Unlock()
	return nil
}

// jobsPass is one measured pass of adhocd-jobs on a fresh data directory.
type jobsPass struct {
	clients        []*jobsClient
	wall           time.Duration
	jobs           int
	samp           *sampler
	stats0, stats1 adhocga.StreamTotals
	wal0, wal1     jobstore.FileStats
	pool           poolSample // traced only
}

func runJobsPass(ctx context.Context, b *bench, dir string, seed uint64, tr *tracer) (*jobsPass, *stack, []float64, error) {
	var setups []float64
	var st *stack
	for i := 0; i < jobsSetups; i++ {
		if st != nil {
			st.close()
		}
		s, err := openStack(ctx, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), tr)
		b.op(err)
		if err != nil {
			return nil, nil, nil, err
		}
		st = s
		setups = append(setups, s.setupDur.Seconds())
	}
	p := &jobsPass{stats0: st.session.StreamTotals(), wal0: st.file.Stats()}
	for i := 0; i < 2; i++ {
		p.clients = append(p.clients, &jobsClient{
			b:      b,
			c:      newClient(st.base, tr, st.handler),
			useWS:  i == 1,
			rng:    rand.New(rand.NewPCG(seed, uint64(i)+1)),
			st:     st,
			inproc: tr != nil,
		})
	}
	p.samp = startSampler()
	var stopPool func() poolSample
	if tr != nil {
		stopPool = samplePool(st.session)
	}
	t0 := time.Now()
	deadline := t0.Add(b.passLength())
	var wg sync.WaitGroup
	for i, c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(ctx, i, deadline)
		}()
	}
	wg.Wait()
	p.wall = time.Since(t0)
	if stopPool != nil {
		p.pool = stopPool()
	}
	p.samp.finish()
	for _, c := range p.clients {
		p.jobs += len(c.jobs)
		c.c.close()
	}
	p.stats1 = st.session.StreamTotals()
	p.wal1 = st.file.Stats()
	return p, st, setups, nil
}

func runJobs(b *bench) error {
	ctx := b.ctx
	seed := splitmix64(b.seed)
	p, st, setups, err := runJobsPass(ctx, b, filepath.Join(b.work, "untraced"), seed, nil)
	if err != nil {
		return err
	}
	st.close()
	rate := float64(p.jobs) / p.wall.Seconds()
	b.printf("end-to-end (untraced, 2 closed-loop clients, %d jobs):\n", p.jobs)
	b.setE2E("setup_s", "setup_s", median(setups), "s", fmt.Sprintf("median of %d: OpenFile + archive + Session + service.New + Recover + listen + /healthz", len(setups)))
	b.setE2E("throughput_per_s", "jobs_per_s", rate, "1/s", fmt.Sprintf("%d scenario jobs reached done in %.2f s", p.jobs, p.wall.Seconds()))
	if err := b.latency("POST → client sees done", gather(p.clients, func(c *jobsClient) []float64 { return c.doneMS }), "done_ms.p50", "done_ms.tail"); err != nil {
		return err
	}
	b.recordRuntime(p.samp, true)
	submit := gather(p.clients, func(c *jobsClient) []float64 { return c.submitMS })
	verify := gather(p.clients, func(c *jobsClient) []float64 { return c.verifyMS })
	leagues := gather(p.clients, func(c *jobsClient) []float64 { return c.leagueMS })
	b.named("submit_ms.p50", median(submit), "ms", fmt.Sprintf("POST /v1/jobs → 202, %d samples", len(submit)))
	b.named("verify_ms.p50", median(verify), "ms", fmt.Sprintf("POST verify → match, %d samples", len(verify)))
	b.named("league_ms.p50", median(leagues), "ms", fmt.Sprintf("POST /v1/league → table read, %d samples", len(leagues)))
	if !b.traced {
		return nil
	}
	b.printf("per-layer (untraced pass of the traced run):\n")
	b.setLayer("submit_ms.p50", median(submit), "ms", fmt.Sprintf("POST /v1/jobs → 202, %d samples", len(submit)))
	b.setLayer("verify_ms.p50", median(verify), "ms", fmt.Sprintf("POST verify → match, %d samples", len(verify)))
	b.setLayer("league_ms.p50", median(leagues), "ms", fmt.Sprintf("POST /v1/league → table read, %d samples", len(leagues)))

	b.tr = newTracer()
	tp, tst, _, err := runJobsPass(ctx, b, filepath.Join(b.work, "traced"), seed, b.tr)
	if err != nil {
		return err
	}
	defer tst.close()
	b.printf("per-layer (traced pass, %d jobs):\n", tp.jobs)
	b.traceOverhead("jobs_per_s", rate, float64(tp.jobs)/tp.wall.Seconds(), true)
	b.recordRuntime(tp.samp, false)
	b.recordHTTP(tst, []*client{tp.clients[0].c, tp.clients[1].c})
	nj := float64(tp.jobs)
	leagueJobs := len(gather(tp.clients, func(c *jobsClient) []float64 { return c.leagueMS }))
	allJobs := nj + float64(leagueJobs)
	ev := tp.stats1
	b.setLayer("hub.events_per_job", float64(ev.Emitted-tp.stats0.Emitted)/allJobs, "count", fmt.Sprintf("StreamTotals emitted ÷ %d scenario + %d league jobs", tp.jobs, leagueJobs))
	b.setLayer("hub.resyncs", float64(ev.Resyncs-tp.stats0.Resyncs), "count", "StreamTotals resyncs during the pass")
	b.setLayer("hub.evictions", float64(ev.Evictions-tp.stats0.Evictions), "count", "StreamTotals evictions during the pass")
	b.setLayer("hub.max_stall_ms", ms(ev.MaxStall), "ms", "StreamTotals max producer stall")
	a, w := tp.clients[0], tp.clients[1]
	b.setLayer("stream.ndjson_bytes_per_job", ratio(float64(a.bytes), float64(len(a.jobs))), "bytes", fmt.Sprintf("client 0: %d NDJSON bytes ÷ %d jobs", a.bytes, len(a.jobs)))
	b.setLayer("stream.ws_frames_per_job", ratio(float64(w.frames), float64(len(w.jobs))), "count", fmt.Sprintf("client 1: %d text frames ÷ %d jobs (live join: snapshot + follow)", w.frames, len(w.jobs)))
	deliver := gather(tp.clients, func(c *jobsClient) []float64 { return c.deliverMS })
	b.setLayer("stream.deliver_ms.p50", median(deliver), "ms", fmt.Sprintf("HTTP receipt − in-process Job.Subscribe receipt of the same seq, %d events", len(deliver)))
	waits := gather(tp.clients, func(c *jobsClient) []float64 { return c.waitMS })
	b.setLayer("session.queue_wait_ms", median(waits), "ms", fmt.Sprintf("202 read → in-process receipt of event 0, %d jobs", len(waits)))
	b.setLayer("runner.pool_busy_share", ratio(tp.pool.busy, tp.pool.slots), "share", fmt.Sprintf("Σ PoolBusy ÷ Σ PoolSize, Session.Stats every %v", poolTick))
	// The job WAL's own counters; the champion WAL appends and fsyncs on
	// its own and is not counted.
	w0, w1 := tp.wal0, tp.wal1
	fsyncs := tst.fsyncSamples()
	b.setLayer("jobstore.puts_per_job", float64(w1.Appends-w0.Appends)/allJobs, "count", fmt.Sprintf("File.Stats appends ÷ %.0f jobs", allJobs))
	b.setLayer("jobstore.fsync_ms.p50", median(fsyncs), "ms", fmt.Sprintf("File.OnFsync, %d fsyncs", len(fsyncs)))
	b.setLayer("jobstore.fsyncs_per_job", float64(w1.Fsyncs-w0.Fsyncs)/allJobs, "count", "File.Stats fsyncs ÷ jobs")
	b.setLayer("jobstore.wal_bytes_per_job", float64(w1.TotalBytes-w0.TotalBytes)/allJobs, "bytes", "File.Stats WAL growth ÷ jobs (a compaction in the pass would shrink it; see jobstore.compactions)")
	b.setLayer("jobstore.compactions", float64(w1.Compactions-w0.Compactions), "count", "File.Stats compactions during the pass")
	ratios := gather(tp.clients, func(c *jobsClient) []float64 { return c.verifyRat })
	b.setLayer("verify.replay_ratio", median(ratios), "share", fmt.Sprintf("verify handler ÷ that job's done time, median of %d", len(ratios)))
	perMatch := gather(tp.clients, func(c *jobsClient) []float64 { return c.perMatch })
	b.setLayer("league.ms_per_match", median(perMatch), "ms", fmt.Sprintf("league POST → table ÷ matches in the table, median of %d leagues", len(perMatch)))
	var jobMS, doneMS float64
	for _, c := range tp.clients {
		jobMS += c.jobShare[0]
		doneMS += c.jobShare[1]
	}
	b.rung("ladder.job_per_done", "job/done_ms", jobMS, doneMS, "ms", "Σ 202 → in-process done", "Σ POST → client done")
	b.rung("ladder.fsync_per_submit", "fsync/submit_ms", median(fsyncs), median(gather(tp.clients, func(c *jobsClient) []float64 { return c.submitMS })), "ms", "p50 fsync", "p50 POST → 202")

	// Core replay of the NDJSON client's first jobs against the
	// cooperation series it read over HTTP.
	var tot replayTotals
	for i, res := range a.jobs {
		if i == 2 {
			break
		}
		spec := res.plan.spec
		rr, err := replay(b.tr, 0, res.id, spec, masterSeeds([]scenario.Spec{spec}, res.plan.seed)[0])
		b.op(err)
		if err != nil {
			continue
		}
		if at := sameSeries(rr.coop, res.coop); at >= 0 {
			b.fail("replay of %s diverges from its NDJSON events at generation %d", res.id, at)
		}
		tot.add(rr)
	}
	b.recordReplay(tot, "2 replayed jobs of client 0")
	return nil
}
