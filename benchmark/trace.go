package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the harness made into a layer. Spans are recorded
// from outside: around the call, in the harness, never inside the program
// under test. Start and End are nanoseconds since the trace began; Parent is
// the index of the enclosing span in the trace's span list, -1 for a root.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Cycle    int    `json:"cycle"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the workload ends. It follows one
// goroutine's call stack, which is all the batch and write-path replays
// need: the harness makes its layer calls sequentially. A nil *tracer
// records nothing, so the untraced run executes the same harness code.
type tracer struct {
	workload string
	t0       time.Time
	cycle    int
	spans    []span
	stack    []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// in runs fn inside a span called name, nested under the span currently
// open on this tracer (if any).
func (t *tracer) in(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Workload: t.workload, Cycle: t.cycle})
	t.stack = append(t.stack, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	fn()
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// add records an already-measured leaf span (the read-path replay times each
// operation itself, because it needs the duration for its medians anyway).
func (t *tracer) add(name string, start time.Time, d time.Duration, cycle int) {
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: -1, Workload: t.workload, Cycle: cycle})
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover. Children of one parent never overlap here (one
// goroutine), so the covered part is the plain sum.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// byCycle groups durations (total or self) of spans called name by cycle and
// sums within a cycle, so a layer called several times per cycle reports its
// whole per-cycle cost.
func byCycle(spans []span, durs []time.Duration, name string) []float64 {
	sums := map[int]float64{}
	var order []int
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		if _, ok := sums[s.Cycle]; !ok {
			order = append(order, s.Cycle)
		}
		sums[s.Cycle] += durs[i].Seconds()
	}
	out := make([]float64, len(order))
	for i, c := range order {
		out[i] = sums[c]
	}
	return out
}

func totals(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

// traceFile is the document written to benchmark/out/trace-<workload>.json.
type traceFile struct {
	Stamp stamp  `json:"stamp"`
	Spans []span `json:"spans"`
}

func (t *tracer) write(outDir string, st stamp) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+t.workload+".json")
	data, err := json.Marshal(traceFile{Stamp: st, Spans: t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
