package adhocga

import (
	"fmt"
	"io"

	"adhocga/internal/textplot"
)

// The unified job event model. Every long-running workload — serial and
// island evolution, case reproduction, scenario batches, CSN sweeps,
// baseline mixes, IPDRP — reports mid-flight progress as a stream of Event
// values on its Job handle, replacing the three incompatible OnGeneration
// callback shapes the pre-Session facade exposed (core.Config.OnGeneration,
// island.Config.OnGeneration, ipdrp.Config.OnGeneration) plus the
// experiment layer's OnReplicate. An Event is a tagged union: Kind says
// which of the payload pointers is set. Events are JSON-serializable with a
// deterministic encoding (no timestamps, stable field order), which is what
// lets the adhocd service stream NDJSON that byte-compares at a fixed seed.
// Delivery runs through the job's streaming hub (hub.go): a bounded ring
// plus compacted snapshot fanned out per subscriber, not an unbounded log.

// EventKind tags which payload an Event carries.
type EventKind string

// The event kinds.
const (
	// KindGeneration: one serial-engine generation finished evaluating
	// (Event.Generation is set).
	KindGeneration EventKind = "generation"
	// KindIslands: one island-model generation finished evaluating
	// (Event.Islands is set).
	KindIslands EventKind = "islands"
	// KindReplicate: one replicate of a multi-replicate workload finished
	// (Event.Replicate is set).
	KindReplicate EventKind = "replicate"
	// KindChurn: a dynamics barrier perturbed a replicate (Event.Churn is
	// set).
	KindChurn EventKind = "churn"
	// KindCheckpoint: a champion checkpoint fired in a replicate
	// (Event.Checkpoint is set). Emitted only by scenarios that enable
	// checkpoints; the session's champion archive consumes these.
	KindCheckpoint EventKind = "checkpoint"
	// KindDone: terminal event, always exactly one and always last
	// (Event.Done is set).
	KindDone EventKind = "done"
)

// Event is one observation from a running Job. Seq numbers events from 0
// in emission order within the job; Job is the emitting job's ID. Exactly
// one payload pointer is non-nil, selected by Kind.
type Event struct {
	Seq  int       `json:"seq"`
	Job  string    `json:"job"`
	Kind EventKind `json:"kind"`

	Generation *GenerationEvent `json:"generation,omitempty"`
	Islands    *IslandsEvent    `json:"islands,omitempty"`
	Replicate  *ReplicateEvent  `json:"replicate,omitempty"`
	Churn      *ChurnEvent      `json:"churn,omitempty"`
	Checkpoint *CheckpointEvent `json:"checkpoint,omitempty"`
	Done       *DoneEvent       `json:"done,omitempty"`
}

// GenerationEvent is the per-generation snapshot of one serial replicate:
// the §6.2 cooperation observables and the population's fitness moments.
// Scenario is the index of the scenario within the job's batch and Rep
// the replicate within it.
type GenerationEvent struct {
	Scenario    int     `json:"scenario"`
	Rep         int     `json:"rep"`
	Gen         int     `json:"gen"`
	Coop        float64 `json:"coop"`
	MeanEnvCoop float64 `json:"mean_env_coop"`
	BestFit     float64 `json:"best_fit"`
	MeanFit     float64 `json:"mean_fit"`
	Diversity   float64 `json:"diversity"`
}

// IslandsEvent is the per-generation snapshot of one island-model
// replicate: run-wide cooperation plus each island's convergence point, in
// island order.
type IslandsEvent struct {
	Scenario    int           `json:"scenario"`
	Rep         int           `json:"rep"`
	Gen         int           `json:"gen"`
	Coop        float64       `json:"coop"`
	MeanEnvCoop float64       `json:"mean_env_coop"`
	PerIsland   []IslandPoint `json:"per_island"`
}

// IslandPoint is one island's fitness/diversity snapshot inside an
// IslandsEvent.
type IslandPoint struct {
	BestFit   float64 `json:"best_fit"`
	MeanFit   float64 `json:"mean_fit"`
	Diversity float64 `json:"diversity"`
}

// ReplicateEvent reports replicate completion: Done of Total replicate
// units of the whole batch have finished.
type ReplicateEvent struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// ChurnEvent reports that a dynamics barrier perturbed a replicate after
// reproducing generation Gen (population churn and/or landscape rewiring).
type ChurnEvent struct {
	Scenario int `json:"scenario"`
	Rep      int `json:"rep"`
	Gen      int `json:"gen"`
}

// CheckpointEvent reports a champion checkpoint: the best genome of
// generation Gen in one replicate, with its fitness context and the
// replicate's master seed (the replay provenance a hall-of-fame archive
// stores). Emitted only when the workload enables checkpoints.
type CheckpointEvent struct {
	Scenario int     `json:"scenario"`
	Rep      int     `json:"rep"`
	Gen      int     `json:"gen"`
	Seed     uint64  `json:"seed"`
	Genome   string  `json:"genome"`
	Fitness  float64 `json:"fitness"`
	MeanFit  float64 `json:"mean_fit"`
	Coop     float64 `json:"coop"`
}

// DoneEvent is the terminal event of every job: the final state and, for
// failed jobs, the error text.
type DoneEvent struct {
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
}

// PartialSeries folds a job's generation events into per-scenario mean
// cooperation series — the tool for emitting a meaningful partial result
// when a job is cancelled mid-flight (SIGINT in the CLIs): feed it every
// event as it streams, then render Series for whatever generations
// completed. Not safe for concurrent use; feed it from a single event
// consumer.
type PartialSeries struct {
	// per scenario: per generation: sum and count of cooperation levels
	// over the replicates observed so far.
	sums    map[int]map[int]meanCell
	lastGen int
}

type meanCell struct {
	coop, envCoop float64
	n             int
}

// Add folds one event; non-generation events are ignored.
func (p *PartialSeries) Add(e Event) {
	var scen, gen int
	var coop, envCoop float64
	switch e.Kind {
	case KindGeneration:
		scen, gen, coop, envCoop = e.Generation.Scenario, e.Generation.Gen, e.Generation.Coop, e.Generation.MeanEnvCoop
	case KindIslands:
		scen, gen, coop, envCoop = e.Islands.Scenario, e.Islands.Gen, e.Islands.Coop, e.Islands.MeanEnvCoop
	default:
		return
	}
	if p.sums == nil {
		p.sums = map[int]map[int]meanCell{}
	}
	m := p.sums[scen]
	if m == nil {
		m = map[int]meanCell{}
		p.sums[scen] = m
	}
	c := m[gen]
	c.coop += coop
	c.envCoop += envCoop
	c.n++
	m[gen] = c
	if gen > p.lastGen {
		p.lastGen = gen
	}
}

// LastGeneration returns the highest generation index observed across all
// scenarios (0 when no generation event arrived).
func (p *PartialSeries) LastGeneration() int { return p.lastGen }

// Empty reports whether no generation events were folded.
func (p *PartialSeries) Empty() bool { return len(p.sums) == 0 }

// RenderInterrupted writes the standard interruption report for a
// cancelled job: an "interrupted at generation N" marker followed by one
// clearly-marked partial cooperation chart per named scenario that
// completed at least one generation. names[i] labels scenario index i of
// the job's batch. Both CLIs call this on SIGINT so a cancelled run
// still emits the series streamed so far instead of dying mid-write.
func RenderInterrupted(w io.Writer, p *PartialSeries, names []string) {
	if p.Empty() {
		fmt.Fprintln(w, "interrupted before any generation completed — no partial series to report")
		return
	}
	fmt.Fprintf(w, "interrupted at generation %d — partial cooperation series (mean over replicates observed so far):\n", p.LastGeneration())
	for i, name := range names {
		series := p.Series(i, false)
		if series == nil {
			fmt.Fprintf(w, "%s: no completed generations\n", name)
			continue
		}
		chart := textplot.Chart{
			Title: fmt.Sprintf("%s — PARTIAL cooperation, interrupted at generation %d", name, len(series)-1),
			YMin:  0, YMax: 1, FixedY: true,
		}
		chart.AddSeries("cooperation", series)
		fmt.Fprintln(w, chart.Render())
	}
}

// Series returns scenario scen's per-generation mean cooperation over the
// replicates observed, from generation 0 through the last generation any
// of them reached. envMean selects the unweighted per-environment mean
// (the multi-environment Fig 4 number) instead of the overall level. Gaps
// (generations no replicate reported) carry the previous value forward so
// the series is renderable.
func (p *PartialSeries) Series(scen int, envMean bool) []float64 {
	m := p.sums[scen]
	if len(m) == 0 {
		return nil
	}
	last := 0
	for g := range m {
		if g > last {
			last = g
		}
	}
	out := make([]float64, last+1)
	prev := 0.0
	for g := 0; g <= last; g++ {
		if c, ok := m[g]; ok && c.n > 0 {
			if envMean {
				prev = c.envCoop / float64(c.n)
			} else {
				prev = c.coop / float64(c.n)
			}
		}
		out[g] = prev
	}
	return out
}
