package adhocga

import (
	"context"
	"errors"
	"log/slog"
	"sync"
)

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states. A job is terminal exactly when its state is
// JobDone, JobFailed, or JobCancelled.
const (
	// JobQueued: submitted, waiting for a session job slot.
	JobQueued JobState = "queued"
	// JobRunning: holding a job slot, work in progress.
	JobRunning JobState = "running"
	// JobDone: finished successfully; Result holds the outcome.
	JobDone JobState = "done"
	// JobFailed: finished with a non-cancellation error.
	JobFailed JobState = "failed"
	// JobCancelled: stopped cooperatively at a generation barrier (or
	// while still queued) by context cancellation.
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Job is the handle to one submitted workload: inspect its state, stream
// its events, wait for or cancel it. All methods are safe for concurrent
// use.
//
// Events flow through the job's streaming hub (see hub.go): a bounded ring
// buffer plus a compacted per-stream snapshot, fanned out to any number of
// subscribers with per-subscriber backpressure. A job's event memory is
// bounded by its HubConfig regardless of how many generations it runs or
// how many clients watch it.
type Job struct {
	id   string
	kind string

	hub    *hub
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	state  JobState
	result any
	err    error
}

func newJob(id, kind string, cfg HubConfig, logger *slog.Logger) *Job {
	return &Job{
		id:    id,
		kind:  kind,
		hub:   newHub(id, cfg, logger),
		done:  make(chan struct{}),
		state: JobQueued,
	}
}

// ID returns the session-unique job identifier ("job-1", "job-2", … in
// submission order — deterministic for a fresh session).
func (j *Job) ID() string { return j.id }

// Kind returns the job kind tag ("scenarios" or "league"), as reported by
// the submitted JobSpec.
func (j *Job) Kind() string { return j.kind }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's terminal error: nil while running or when done,
// an error wrapping context.Canceled when cancelled, the failure
// otherwise.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the job's outcome value once terminal, nil before: a
// []*CaseResult for a ScenariosSpec, a *LeagueTable for a LeagueJobSpec.
// A job cancelled mid-flight carries nil — use the event stream
// (PartialSeries) for a scenario batch's partial view.
func (j *Job) Result() any {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// EventCount returns the total number of events emitted so far (not all of
// them are necessarily still retained — see Snapshot).
func (j *Job) EventCount() int { return j.hub.totalEvents() }

// Snapshot returns a copy of every event still retained, in sequence
// order: for jobs within the hub's ring capacity this is the full history;
// longer jobs keep the compacted snapshot of the evicted range (the latest
// event per stream) followed by the ring tail.
func (j *Job) Snapshot() []Event { return j.hub.retained() }

// StreamStats returns the job hub's observability counters: events
// emitted/retained/overwritten, attached subscribers, backpressure
// resyncs and evictions, and the longest producer stall.
func (j *Job) StreamStats() StreamStats { return j.hub.stats() }

// Frame returns the JSON encoding of one of this job's events, served
// from the hub's shared frame cache: the first caller for a given event
// marshals it once, every other subscriber fanning the same event out
// (WebSocket, SSE, NDJSON) reuses the cached bytes. Identical to
// json.Marshal(e) byte for byte; callers must not mutate the result.
func (j *Job) Frame(e Event) ([]byte, error) { return j.hub.frame(e) }

// Subscribe attaches one subscription to the job's event stream with
// explicit replay and backpressure control (see SubscribeOptions and
// Backpressure). The subscription's channel closes after the terminal
// KindDone event, when ctx is cancelled, or when backpressure evicts the
// subscriber; Subscription.Err distinguishes the three. The job itself is
// never affected by its subscribers beyond the bounded BlockWithDeadline
// wait.
func (j *Job) Subscribe(ctx context.Context, opts SubscribeOptions) *Subscription {
	if opts.From < 0 {
		opts.From = 0
	}
	return j.hub.subscribe(ctx, opts)
}

// Events streams the job's events from the oldest retained one — for jobs
// within the ring capacity that is the very first, so a subscriber
// attaching after the job started (or even after it finished) replays the
// full history, then follows live. The subscription uses the archival
// BlockWithDeadline policy: an actively-draining consumer sees every event
// with no gaps, and only a consumer that stops draining for longer than
// the hub's BlockDeadline is evicted (the channel closes early in that
// case). The channel is closed after the terminal KindDone event. Use
// EventsContext to detach early.
func (j *Job) Events() <-chan Event {
	return j.EventsContext(context.Background())
}

// EventsContext is Events with a detach control: when ctx is cancelled the
// subscription stops and the channel is closed without draining the
// remaining history. The job itself is unaffected.
func (j *Job) EventsContext(ctx context.Context) <-chan Event {
	return j.Subscribe(ctx, SubscribeOptions{Policy: BlockWithDeadline}).C
}

// Wait blocks until the job reaches a terminal state or ctx is done. It
// returns the job's terminal error (nil for success) — or ctx.Err() when
// the wait itself was abandoned first; the job keeps running in that
// case.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel requests cooperative cancellation: the job stops at its next
// generation barrier (immediately when still queued). Cancel returns
// without waiting; use Wait to observe the terminal state. Cancelling a
// terminal job is a no-op.
func (j *Job) Cancel() { j.cancel() }

// emit appends one event to the hub, stamping Seq and Job, and wakes all
// subscribers. No-op after the job turned terminal (the KindDone event is
// the last one, emitted by finish itself).
func (j *Job) emit(e Event) { j.hub.append(e, false) }

// setRunning moves a queued job to running.
func (j *Job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobQueued {
		j.state = JobRunning
	}
}

// finish records the terminal outcome, emits the KindDone event (sealing
// the hub), and releases waiters. The terminal state is derived from err:
// nil → done, cancellation → cancelled, anything else → failed.
func (j *Job) finish(result any, err error) {
	j.mu.Lock()
	state := JobDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		state = JobCancelled
	default:
		state = JobFailed
	}
	j.result = result
	j.err = err
	j.state = state
	j.mu.Unlock()
	ev := Event{Kind: KindDone, Done: &DoneEvent{State: state}}
	if err != nil {
		ev.Done.Error = err.Error()
	}
	j.hub.append(ev, true)
	j.cancel() // release the job context's resources
	close(j.done)
}
