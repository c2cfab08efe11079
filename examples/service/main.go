// Service: the Session/Job API end to end, twice over — first embedded
// (Submit a job, stream its unified events, cancel a second job
// mid-flight), then over HTTP the way adhocd serves it (submit a
// scenario-spec JSON with POST, follow the NDJSON event stream, read the
// final status).
//
// The same Session backs both halves: the HTTP jobs and the embedded jobs
// share one execution pool, so nothing oversubscribes no matter how many
// jobs are in flight.
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"adhocga"
	"adhocga/internal/service"
)

func main() {
	session := adhocga.NewSession(
		adhocga.WithPoolSize(4),
		adhocga.WithMaxConcurrentJobs(2),
		adhocga.WithDefaultScale(adhocga.ScaleSmoke),
	)
	defer session.Close()

	// --- Embedded: submit, stream, wait. ---
	spec := adhocga.ScenarioSpec{
		Name:           "embedded-demo",
		Environments:   []adhocga.ScenarioEnv{{CSN: 0}},
		Population:     30,
		TournamentSize: 15,
		Rounds:         50,
		Generations:    10,
		Repetitions:    1,
	}
	// The embedded jobs take their own IDs: the HTTP service numbers its
	// jobs job-1, job-2, … and would otherwise collide with the session's
	// default IDs.
	job, err := session.SubmitNamed(context.Background(), "embedded-1", adhocga.ScenariosSpec{
		Runs: []adhocga.ScenarioRun{{Spec: spec, Seed: 1}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s (%s)\n", job.ID(), job.Kind())
	for e := range job.Events() {
		switch e.Kind {
		case adhocga.KindGeneration:
			if e.Generation.Gen%3 == 0 {
				fmt.Printf("  gen %2d: cooperation %5.1f%%  best fitness %.3f\n",
					e.Generation.Gen, e.Generation.Coop*100, e.Generation.BestFit)
			}
		case adhocga.KindDone:
			fmt.Printf("  terminal state: %s\n", e.Done.State)
		}
	}
	res := job.Result().([]*adhocga.CaseResult)[0]
	fmt.Printf("final cooperation: %s\n\n", res.FinalCoop)

	// --- Cancellation: a job stops at its next generation barrier. ---
	long := spec
	long.Generations = 1_000_000
	victim, err := session.SubmitNamed(context.Background(), "embedded-2", adhocga.ScenariosSpec{
		Runs: []adhocga.ScenarioRun{{Spec: long, Seed: 1}},
	})
	if err != nil {
		log.Fatal(err)
	}
	var partial adhocga.PartialSeries
	for e := range victim.Events() {
		partial.Add(e)
		if e.Kind == adhocga.KindGeneration && e.Generation.Gen == 2 {
			victim.Cancel() // cooperative: next barrier, determinism intact
		}
	}
	fmt.Printf("cancelled %s after generation %d of %d (state %s)\n\n",
		victim.ID(), partial.LastGeneration(), long.Generations, victim.State())

	// --- Over HTTP: what `adhocd` serves, here on an httptest listener.
	// With a real daemon this is:  curl -s localhost:8547/v1/jobs -d @spec.json
	srv := httptest.NewServer(service.New(session, service.Options{DefaultScale: adhocga.ScaleSmoke}))
	defer srv.Close()

	body := `{"scenarios": {"name": "http-demo", "environments": [{"csn": 10}],
	          "population": 30, "tournament_size": 15,
	          "generations": 8, "rounds": 50, "repetitions": 2, "seed": 7},
	          "parallelism": 1}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Println("POST /v1/jobs →", resp.Status)

	// Stream the job's NDJSON events (curl -N …/v1/jobs/job-1/events).
	stream, err := http.Get(srv.URL + "/v1/jobs/job-1/events")
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Body.Close()
	lines := 0
	scanner := bufio.NewScanner(stream.Body)
	for scanner.Scan() {
		lines++
		if lines <= 3 {
			fmt.Println("  ", scanner.Text())
		}
	}
	fmt.Printf("streamed %d NDJSON events\n", lines)

	status, err := http.Get(srv.URL + "/v1/jobs/job-1")
	if err != nil {
		log.Fatal(err)
	}
	defer status.Body.Close()
	sc := bufio.NewScanner(status.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, `"state"`) || strings.Contains(line, `"final_coop_mean"`) {
			fmt.Println("  ", strings.TrimSpace(line))
		}
	}
}
