package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"adhocga"
	"adhocga/internal/jobstore"
)

// POST /v1/jobs/{id}/verify — provable reproducibility as an endpoint.
//
// Every job in this codebase is a pure function of (seed, spec), so a
// finished job's stored record is also a falsifiable claim: "running this
// spec under this seed produces exactly these bytes". Verify tests the
// claim. It replays the job from its recorded spec in a sandboxed,
// throwaway Session (its own pool — a verify pass never competes for the
// serving session's job slots), re-derives the result summary and the
// NDJSON event log, and compares:
//
//   - result digest: hex SHA-256 of the result summary JSON, checked for
//     every job — including ones whose event log outgrew retention, where
//     it is the only check (mode "digest").
//   - event log: when the record embeds the full NDJSON replay
//     (deterministic parallelism-1 jobs within retention), the replayed
//     log is byte-compared against it and a mismatch reports the first
//     divergent offset with a snippet of both sides (mode
//     "byte-compare"). A record that kept only the log digest (log too
//     large to embed) digest-compares the replayed log instead.
//
// The verdict is "match" only when every applicable comparison holds.
// Tampering with a stored digest, result, spec byte, or event log — or
// any nondeterminism bug in the engine — turns it "mismatch".

// VerifyReport is the verify endpoint's response.
type VerifyReport struct {
	ID      string `json:"id"`
	Verdict string `json:"verdict"` // "match" | "mismatch"
	Mode    string `json:"mode"`    // "byte-compare" | "digest"

	// Result-summary digest comparison (always performed).
	ResultDigestStored   string `json:"result_digest_stored"`
	ResultDigestReplayed string `json:"result_digest_replayed"`
	ResultMatch          bool   `json:"result_match"`

	// Event-log comparison (mode "byte-compare" only).
	EventLog *VerifyLogReport `json:"event_log,omitempty"`
}

// VerifyLogReport details the event-log byte comparison.
type VerifyLogReport struct {
	StoredBytes   int  `json:"stored_bytes"`
	ReplayedBytes int  `json:"replayed_bytes"`
	Match         bool `json:"match"`
	// DivergenceOffset is the first byte offset where the logs differ
	// (-1 on match). When one log is a strict prefix of the other it is
	// the shorter length.
	DivergenceOffset int `json:"divergence_offset"`
	// StoredAt / ReplayedAt quote up to 32 bytes of each log starting at
	// the divergence, for a human reading the verdict.
	StoredAt   string `json:"stored_at,omitempty"`
	ReplayedAt string `json:"replayed_at,omitempty"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok, err := s.store.Get(id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "load record: %v", err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	// A job that just finished may be ahead of its record (the watcher
	// persists the terminal state asynchronously); give the watcher a
	// moment to catch up before judging the state.
	if !jobstore.TerminalState(rec.State) {
		if j, live := s.session.Job(id); live && j.State().Terminal() {
			if done := s.watcherDone(id); done != nil {
				select {
				case <-done:
				case <-time.After(30 * time.Second):
				case <-r.Context().Done():
					return
				}
			}
			rec, ok, err = s.store.Get(id)
			if err != nil || !ok {
				httpError(w, http.StatusInternalServerError, "reload record: %v", err)
				return
			}
		}
	}
	if rec.State != jobstore.StateDone {
		httpError(w, http.StatusConflict, "job %s is %s; only done jobs can be verified", id, rec.State)
		return
	}
	report, err := s.verifyRecord(r.Context(), rec)
	if err != nil {
		s.verifies.With("error").Inc()
		httpError(w, http.StatusInternalServerError, "verify %s: %v", id, err)
		return
	}
	s.verifies.With(report.Verdict).Inc()
	s.opts.Logger.Info("verify finished", "job", id, "verdict", report.Verdict, "mode", report.Mode)
	writeJSON(w, http.StatusOK, report)
}

// verifyRecord replays rec in a sandbox and compares the outcome against
// the stored artifacts.
func (s *Server) verifyRecord(ctx context.Context, rec jobstore.Record) (VerifyReport, error) {
	replayLog, replayResults, err := s.replayRecord(ctx, rec)
	if err != nil {
		return VerifyReport{}, err
	}
	report := VerifyReport{
		ID:                   rec.ID,
		Mode:                 "digest",
		ResultDigestStored:   rec.ResultDigest,
		ResultDigestReplayed: digest(replayResults),
	}
	report.ResultMatch = report.ResultDigestStored == report.ResultDigestReplayed
	match := report.ResultMatch
	switch {
	case len(rec.EventLog) > 0:
		report.Mode = "byte-compare"
		report.EventLog = compareLogs(rec.EventLog, replayLog)
		match = match && report.EventLog.Match
	case rec.LogDigest != "":
		// The full log was eligible but too large to embed: check the
		// replayed log against its stored digest, still byte-exact in
		// effect but without an offset to point at.
		report.Mode = "byte-compare"
		logMatch := digest(replayLog) == rec.LogDigest
		report.EventLog = &VerifyLogReport{
			StoredBytes:      -1,
			ReplayedBytes:    len(replayLog),
			Match:            logMatch,
			DivergenceOffset: -1,
		}
		match = match && logMatch
	}
	report.Verdict = "mismatch"
	if match {
		report.Verdict = "match"
	}
	return report, nil
}

// replayRecord re-runs the record's (seed, spec) in a sandboxed session
// and returns the replayed NDJSON event log and result-summary JSON.
func (s *Server) replayRecord(ctx context.Context, rec jobstore.Record) ([]byte, []byte, error) {
	spec, err := specFromRecord(rec)
	if err != nil {
		return nil, nil, err
	}
	// Size the sandbox hub to retain the whole replay whenever the
	// original run's history was retained, so the byte comparison sees
	// complete logs on both sides.
	hub := adhocga.HubConfig{}
	if rec.Events > 0 {
		hub.RingSize = rec.Events
	}
	sessOpts := []adhocga.SessionOption{adhocga.WithHubConfig(hub)}
	if rec.Kind == "league" && s.opts.Champions != nil {
		// League seats resolve from the champion archive; sharing it is
		// safe — replays archive nothing (the sandbox runs no checkpoints)
		// and Select only reads.
		sessOpts = append(sessOpts, adhocga.WithChampionArchive(s.opts.Champions))
	}
	sandbox := adhocga.NewSession(sessOpts...)
	defer sandbox.Close()
	// The original ID matters: events embed it, and the stored log was
	// emitted under it.
	j, err := sandbox.SubmitNamed(ctx, rec.ID, spec)
	if err != nil {
		return nil, nil, err
	}
	var events []adhocga.Event
	for e := range j.EventsContext(ctx) {
		events = append(events, e)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := j.Wait(ctx); err != nil {
		return nil, nil, fmt.Errorf("replay failed: %w", err)
	}
	var results []byte
	if table := leagueOf(j); table != nil {
		results, err = json.Marshal(table)
	} else {
		results, err = json.Marshal(resultsOf(j))
	}
	if err != nil {
		return nil, nil, err
	}
	return eventLogNDJSON(events), results, nil
}

// compareLogs byte-compares the stored and replayed event logs.
func compareLogs(stored, replayed []byte) *VerifyLogReport {
	rep := &VerifyLogReport{
		StoredBytes:      len(stored),
		ReplayedBytes:    len(replayed),
		DivergenceOffset: -1,
	}
	n := min(len(stored), len(replayed))
	for i := 0; i < n; i++ {
		if stored[i] != replayed[i] {
			rep.DivergenceOffset = i
			break
		}
	}
	if rep.DivergenceOffset < 0 && len(stored) != len(replayed) {
		rep.DivergenceOffset = n
	}
	if rep.DivergenceOffset < 0 {
		rep.Match = true
		return rep
	}
	rep.StoredAt = snippet(stored, rep.DivergenceOffset)
	rep.ReplayedAt = snippet(replayed, rep.DivergenceOffset)
	return rep
}

// snippet quotes up to 32 bytes of b starting at off.
func snippet(b []byte, off int) string {
	if off >= len(b) {
		return ""
	}
	end := min(off+32, len(b))
	return string(b[off:end])
}
