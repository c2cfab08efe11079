package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"adhocga"
	"adhocga/internal/jobstore"
)

// The league surface: the champion archive's read endpoints and the
// league-job submit endpoint. Champions get into the archive when jobs
// run with checkpoints enabled (the scenario "checkpoints" field); a
// league job re-seats selected champions — optionally with the scripted
// baselines — in a round-robin of tournament matches and reports the
// table. League jobs ride the same durable-record machinery as scenario
// jobs: queued-before-202, watched to terminal, recovered by Kind.

// handleChampions lists the hall of fame in archival order, optionally
// filtered by classification category (?category=reciprocal) or source
// job (?job=job-1). The archive keeps the rendered listing between Puts,
// so a read copies bytes instead of encoding every champion.
func (s *Server) handleChampions(w http.ResponseWriter, r *http.Request) {
	if s.opts.Champions == nil {
		httpError(w, http.StatusServiceUnavailable, "no champion archive configured (run adhocd with -champions)")
		return
	}
	q := r.URL.Query()
	body, err := s.opts.Champions.Listing(q.Get("category"), q.Get("job"))
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleChampion serves one champion by ID. Champion IDs contain slashes
// (job/scenario/rep/generation), so the route binds the path remainder.
func (s *Server) handleChampion(w http.ResponseWriter, r *http.Request) {
	if s.opts.Champions == nil {
		httpError(w, http.StatusServiceUnavailable, "no champion archive configured (run adhocd with -champions)")
		return
	}
	id := r.PathValue("id")
	c, ok := s.opts.Champions.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no champion %q", id)
		return
	}
	writeJSON(w, http.StatusOK, c)
}

// handleLeague submits a league job over selected champions. The body is
// a LeagueJobSpec JSON document ({"champions": [...], "baselines": true,
// "seed": 7, ...}); an empty champions list seats the whole archive. The
// job runs on the session like any other: 202 with the handle, results
// on GET /v1/jobs/{id} once done.
func (s *Server) handleLeague(w http.ResponseWriter, r *http.Request) {
	if s.opts.Champions == nil {
		httpError(w, http.StatusServiceUnavailable, "no champion archive configured (run adhocd with -champions)")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if int64(len(body)) > s.opts.MaxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.opts.MaxBodyBytes)
		return
	}
	var spec adhocga.LeagueJobSpec
	if len(body) > 0 {
		if err := json.Unmarshal(body, &spec); err != nil {
			httpError(w, http.StatusBadRequest, "body: %v", err)
			return
		}
	}
	// Fail the obvious emptiness up front (no champions and no baselines
	// can never seat a league) so the client gets a 400, not a failed job.
	if len(spec.ChampionIDs) == 0 && s.opts.Champions.Len() == 0 && !spec.IncludeBaselines {
		httpError(w, http.StatusBadRequest, "champion archive is empty and baselines are off — nothing to seat")
		return
	}
	rec, err := newLeagueRecord(s.allocID(), spec)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err := s.store.Put(rec); err != nil {
		httpError(w, http.StatusInternalServerError, "persist job: %v", err)
		return
	}
	job, err := s.session.SubmitNamed(context.WithoutCancel(r.Context()), rec.ID, spec)
	if err != nil {
		rec.State = jobstore.StateFailed
		rec.Error = err.Error()
		if perr := s.store.Put(rec); perr != nil {
			s.opts.Logger.Warn("persist failed submit", "job", rec.ID, "error", perr)
		}
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.watch(rec, job)
	s.leagueRuns.Inc()
	s.opts.Logger.Info("league job accepted", "job", rec.ID, "champions", len(spec.ChampionIDs), "baselines", spec.IncludeBaselines)
	writeJSON(w, http.StatusAccepted, s.info(job))
}

// newLeagueRecord builds the durable identity of a league submission. The
// spec document alone re-runs the job: the seats resolve from the champion
// archive, which is itself durable.
func newLeagueRecord(id string, spec adhocga.LeagueJobSpec) (jobstore.Record, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return jobstore.Record{}, fmt.Errorf("encode spec: %w", err)
	}
	return jobstore.Record{
		ID:    id,
		Kind:  "league",
		Spec:  raw,
		Seed:  spec.Seed,
		State: jobstore.StateQueued,
		// A league emits no mid-flight events, so its (trivial) event log
		// is reproducible at any parallelism; the table itself is always
		// bit-identical.
		Deterministic: true,
	}, nil
}

// leagueOf extracts a finished league job's table (nil for every other
// job kind or while running).
func leagueOf(j *adhocga.Job) *adhocga.LeagueTable {
	t, _ := j.Result().(*adhocga.LeagueTable)
	return t
}
