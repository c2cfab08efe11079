package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls (or, for work the layer does on its own
// goroutines, bracketed by the events that layer emits). Parent links a
// span to the span that caused it; Job ties spans of one job together.
// Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes call the same code at no cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int64, job string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were observed rather than bracketed.
func (t *tracer) add(name string, parent int64, job string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// spanStat aggregates the spans of one name: how many, their total
// duration, and their self time — duration minus the part of it that child
// spans cover.
type spanStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// stats computes per-name totals and self times over every closed span.
func (t *tracer) stats() []spanStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*spanStat{}
	var names []string
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		st := agg[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			agg[s.Name] = st
			names = append(names, s.Name)
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(s, children[s.ID]))
	}
	sort.Strings(names)
	out := make([]spanStat, 0, len(names))
	for _, n := range names {
		out = append(out, *agg[n])
	}
	return out
}

// covered is how many nanoseconds of parent the union of kids spans,
// clipped to the parent's own interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printStats writes the span table: count, total and self time per name,
// and self time as a share of the span's own total.
func (t *tracer) printStats(w io.Writer) {
	st := t.stats()
	if len(st) == 0 {
		return
	}
	fmt.Fprintf(w, "spans (self = duration minus child spans):\n")
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %8s\n", "name", "count", "total_ms", "self_ms", "self/total")
	for _, s := range st {
		fmt.Fprintf(w, "  %-28s %8d %12.1f %12.1f %8.3f\n", s.Name, s.Count, ms(s.Total), ms(s.Self),
			ratio(float64(s.Self), float64(s.Total)))
	}
}
