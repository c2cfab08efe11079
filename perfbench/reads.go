package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"adhocga/internal/scenario"
)

// adhocd-reads: the read and recovery path. Before timing, one job of
// each shape in the jobs deck runs, one after another, through a
// file-store, champions-enabled daemon, which leaves a WAL of finished records, archived event logs and
// harvested champions; the benchmark keeps the bytes every read endpoint
// served then. Set-up reopens that WAL (OpenFile + Recover + listen +
// /healthz). Two closed-loop clients then issue a seeded, skewed mix of
// GETs; every body must equal the fixture's bytes. No job runs.
//
// The read mix and the hot/cold skew are assumptions, not measured adhocd
// traffic: no access log exists to derive them from. They are chosen so
// every read endpoint is hit often enough for a steady median (the cheap
// status reads most, /metrics least), and the 80/20 skew is the common
// rule of thumb for a few jobs being watched while the rest sit idle.
// The hot jobs are picked by deck shape, not by seed, so every seed reads
// hot bodies of the same sizes and the figures move with the code.
const (
	readsSetups = 25
	// The jobs of every hotEvery-th deck shape (7 of 32) draw hotPicks of
	// the per-job reads.
	hotEvery = 5
	hotPicks = 0.8
	// readsGetRounds is how many times the traced pass calls File.Get on
	// each fixture record to time the store's read path.
	readsGetRounds = 50
	// readsWindows splits the pass for the tail: a pass holds ~10^5
	// reads, so its single highest percentile with ten samples beyond it
	// is set by a handful of scheduler or GC stalls. With ~10^3 reads per
	// window each window's tail is about its p99, and the median of the
	// per-window tails follows the reads rather than the stalls (10
	// windows, about p99.9 each, still doubled on a busy host).
	readsWindows = 100
)

// readMix weights the GET kinds of the load.
var readMix = []struct {
	kind   string
	weight int
}{
	{"status", 35},
	{"events", 30},
	{"list", 10},
	{"champions", 15},
	{"metrics", 10},
}

// fixture is the served state before the restart.
type fixture struct {
	ids       []string
	hot       []string
	plans     map[string]jobPlan
	status    map[string][]byte // GET /v1/jobs/{id}
	events    map[string][]byte // the live NDJSON stream, byte for byte
	list      []byte            // GET /v1/jobs?state=done
	champions []byte            // GET /v1/champions
}

// buildFixture runs one job per deck shape, sequentially and in a seeded
// order, so job IDs and the champion archive's order are a function of
// the seed alone.
func buildFixture(ctx context.Context, b *bench, dir string, seed uint64) (*fixture, error) {
	st, err := openStack(ctx, dir, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	c := newClient(st.base, nil, nil)
	defer c.close()
	r := rand.New(rand.NewPCG(seed, 99))
	fx := &fixture{plans: map[string]jobPlan{}, status: map[string][]byte{}, events: map[string][]byte{}}
	get := func(path string) ([]byte, error) {
		rep, err := c.do("GET", path, nil, 0, "")
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("GET %s: %d %s", path, rep.status, rep.body)
		}
		return rep.body, err
	}
	deck := jobDeck()
	for i, k := range r.Perm(len(deck)) {
		plan, err := planJob(r, fmt.Sprintf("pb-fixture-%d", i), deck[k])
		if err != nil {
			return nil, err
		}
		rep, err := c.do("POST", "/v1/jobs", plan.body, 0, "")
		if err != nil {
			return nil, err
		}
		var info struct{ ID string }
		if rep.status != http.StatusAccepted || json.Unmarshal(rep.body, &info) != nil || info.ID == "" {
			return nil, fmt.Errorf("fixture submit: %d %s", rep.status, rep.body)
		}
		events, err := get("/v1/jobs/" + info.ID + "/events")
		if err != nil {
			return nil, err
		}
		if !bytes.Contains(events, []byte(`"kind":"done","done":{"state":"done"}`)) {
			return nil, fmt.Errorf("fixture job %s did not finish: %s", info.ID, events)
		}
		status, err := get("/v1/jobs/" + info.ID)
		if err != nil {
			return nil, err
		}
		fx.ids = append(fx.ids, info.ID)
		if k%hotEvery == 0 {
			fx.hot = append(fx.hot, info.ID)
		}
		fx.plans[info.ID] = plan
		fx.events[info.ID] = events
		fx.status[info.ID] = status
	}
	if fx.list, err = get("/v1/jobs?state=done"); err != nil {
		return nil, err
	}
	if fx.champions, err = get("/v1/champions"); err != nil {
		return nil, err
	}
	return fx, nil
}

// readsClient is one closed-loop reader.
type readsClient struct {
	b   *bench
	c   *client
	fx  *fixture
	rng *rand.Rand
	hot []string // the hot jobs
	all []string

	t0       time.Time // pass start
	readMS   []float64
	readAt   []float64 // completion, seconds since t0
	scrapeMS []float64
	scrapeB  []float64
}

func (rc *readsClient) pickJob() string {
	if rc.rng.Float64() < hotPicks {
		return rc.hot[rc.rng.IntN(len(rc.hot))]
	}
	return rc.all[rc.rng.IntN(len(rc.all))]
}

func (rc *readsClient) pickKind() string {
	total := 0
	for _, m := range readMix {
		total += m.weight
	}
	n := rc.rng.IntN(total)
	for _, m := range readMix {
		if n < m.weight {
			return m.kind
		}
		n -= m.weight
	}
	return readMix[0].kind
}

// read issues one GET of the mix and checks its body.
func (rc *readsClient) read() error {
	var path string
	var want []byte
	kind := rc.pickKind()
	switch kind {
	case "status":
		id := rc.pickJob()
		path, want = "/v1/jobs/"+id, rc.fx.status[id]
	case "events":
		id := rc.pickJob()
		path, want = "/v1/jobs/"+id+"/events", rc.fx.events[id]
	case "list":
		path, want = "/v1/jobs?state=done", rc.fx.list
	case "champions":
		path, want = "/v1/champions", rc.fx.champions
	case "metrics":
		path = "/metrics"
	}
	rep, err := rc.c.do("GET", path, nil, 0, "")
	if err != nil {
		return err
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, rep.status, rep.body)
	}
	if kind == "metrics" {
		// The exposition changes as it counts these very requests, so it
		// is checked for the recovery census instead of byte equality.
		census := fmt.Sprintf("\nadhocd_recovered_jobs %d\n", len(rc.all))
		if !bytes.Contains(rep.body, []byte(census)) {
			return fmt.Errorf("GET /metrics: no %q line", census[1:len(census)-1])
		}
		rc.scrapeMS = append(rc.scrapeMS, ms(rep.dur))
		rc.scrapeB = append(rc.scrapeB, float64(len(rep.body)))
	} else if !bytes.Equal(rep.body, want) {
		return fmt.Errorf("GET %s: %d bytes differ from the fixture's %d", path, len(rep.body), len(want))
	}
	rc.readMS = append(rc.readMS, ms(rep.dur))
	rc.readAt = append(rc.readAt, time.Since(rc.t0).Seconds())
	return nil
}

// readsPass is one measured pass over a reopened WAL.
type readsPass struct {
	clients []*readsClient
	wall    time.Duration
	reads   int
	samp    *sampler
	setups  []float64
	opens   []float64
	recover []float64
}

func runReadsPass(ctx context.Context, b *bench, dir string, fx *fixture, seed uint64, tr *tracer) (*readsPass, *stack, error) {
	p := &readsPass{}
	var st *stack
	for i := 0; i < readsSetups; i++ {
		if st != nil {
			st.close()
		}
		s, err := openStack(ctx, dir, tr)
		b.op(err)
		if err != nil {
			return nil, nil, err
		}
		st = s
		p.setups = append(p.setups, s.setupDur.Seconds())
		p.opens = append(p.opens, s.openDur.Seconds())
		p.recover = append(p.recover, s.recoverDur.Seconds())
	}
	for i := 0; i < 2; i++ {
		p.clients = append(p.clients, &readsClient{
			b: b, c: newClient(st.base, tr, st.handler), fx: fx,
			rng: rand.New(rand.NewPCG(seed, uint64(i)+1)), hot: fx.hot, all: fx.ids,
		})
	}
	p.samp = startSampler()
	t0 := time.Now()
	deadline := t0.Add(b.passLength())
	var wg sync.WaitGroup
	for _, rc := range p.clients {
		rc.t0 = t0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				rc.b.op(rc.read())
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(t0)
	p.samp.finish()
	for _, rc := range p.clients {
		p.reads += len(rc.readMS)
		rc.c.close()
	}
	return p, st, nil
}

func runReads(b *bench) error {
	ctx := b.ctx
	seed := splitmix64(b.seed)
	dir := filepath.Join(b.work, "data")
	t0 := time.Now()
	fx, err := buildFixture(ctx, b, dir, seed)
	b.op(err)
	if err != nil {
		return err
	}
	b.printf("fixture: %d finished jobs in %.2f s (not timed)\n", len(fx.ids), time.Since(t0).Seconds())
	p, st, err := runReadsPass(ctx, b, dir, fx, seed, nil)
	if err != nil {
		return err
	}
	st.close()
	rate := float64(p.reads) / p.wall.Seconds()
	b.printf("end-to-end (untraced, 2 closed-loop clients, %d reads):\n", p.reads)
	b.setE2E("setup_s", "setup_s", median(p.setups), "s", fmt.Sprintf("median of %d reopens: OpenFile + archive + Session + service.New + Recover + listen + /healthz", len(p.setups)))
	b.setE2E("throughput_per_s", "reads_per_s", rate, "1/s", fmt.Sprintf("%d GETs in %.2f s", p.reads, p.wall.Seconds()))
	reads := gather(p.clients, func(c *readsClient) []float64 { return c.readMS })
	at := gather(p.clients, func(c *readsClient) []float64 { return c.readAt })
	if err := b.windowedLatency("GET, client time", reads, at, p.wall.Seconds(), readsWindows, "read_ms.p50", "read_ms.tail"); err != nil {
		return err
	}
	b.recordRuntime(p.samp, true)
	if !b.traced {
		return nil
	}
	b.printf("per-layer (untraced pass of the traced run):\n")
	b.setLayer("jobstore.open_s", median(p.opens), "s", fmt.Sprintf("jobstore.OpenFile of the fixture WAL, median of %d", len(p.opens)))
	b.setLayer("service.recover_s", median(p.recover), "s", fmt.Sprintf("Server.Recover of %d records, median of %d", len(fx.ids), len(p.recover)))
	scrape := gather(p.clients, func(c *readsClient) []float64 { return c.scrapeMS })
	b.setLayer("obs.scrape_ms", median(scrape), "ms", fmt.Sprintf("GET /metrics client time, %d scrapes", len(scrape)))
	b.setLayer("obs.scrape_bytes", median(gather(p.clients, func(c *readsClient) []float64 { return c.scrapeB })), "bytes", "GET /metrics body size (median)")

	b.tr = newTracer()
	tp, tst, err := runReadsPass(ctx, b, dir, fx, seed, b.tr)
	if err != nil {
		return err
	}
	defer tst.close()
	b.printf("per-layer (traced pass, %d reads):\n", tp.reads)
	b.traceOverhead("reads_per_s", rate, float64(tp.reads)/tp.wall.Seconds(), true)
	b.recordRuntime(tp.samp, false)
	b.recordHTTP(tst, []*client{tp.clients[0].c, tp.clients[1].c})
	// The service reads the File directly, so Get is timed by calling it
	// on the served records once the load is over.
	var gets []float64
	for range readsGetRounds {
		for _, id := range fx.ids {
			sp := b.tr.begin("jobstore.get", 0, id)
			t0 := time.Now()
			_, ok, err := tst.file.Get(id)
			gets = append(gets, ms(time.Since(t0)))
			b.tr.end(sp)
			if err != nil || !ok {
				b.fail("File.Get(%s) after the reopen: found=%v err=%v", id, ok, err)
			}
		}
	}
	b.setLayer("jobstore.get_ms.p50", median(gets), "ms", fmt.Sprintf("File.Get on the served store after the load, %d calls", len(gets)))

	// Core replay of two fixture jobs against their archived event logs.
	var tot replayTotals
	for _, id := range fx.ids[:2] {
		plan := fx.plans[id]
		var want []float64
		_, err := lines(bytes.NewReader(fx.events[id]), func(line []byte, _ time.Time) error {
			var e wireEvent
			if err := json.Unmarshal(line, &e); err != nil {
				return err
			}
			if g := e.Generation; g != nil && g.Scenario == 0 && g.Rep == 0 {
				want = append(want, g.Coop)
			}
			return nil
		})
		if err != nil {
			b.fail("fixture %s events: %v", id, err)
			continue
		}
		rr, err := replay(b.tr, 0, id, plan.spec, masterSeeds([]scenario.Spec{plan.spec}, plan.seed)[0])
		b.op(err)
		if err != nil {
			continue
		}
		if at := sameSeries(rr.coop, want); at >= 0 {
			b.fail("replay of %s diverges from its archived event log at generation %d", id, at)
		}
		tot.add(rr)
	}
	b.recordReplay(tot, "2 replayed fixture jobs")
	return nil
}
