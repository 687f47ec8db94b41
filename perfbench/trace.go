package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Times are offsets from the recorder's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, when the
// benchmark ends. A disabled recorder times nothing and allocates
// nothing, so the same call sites serve the untraced comparison run.
// It is used from one goroutine.
type recorder struct {
	on    bool
	run   string
	t0    time.Time
	spans []span
	stack []int
}

func newRecorder(run string, on bool) *recorder {
	return &recorder{on: on, run: run, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name, Start: time.Since(r.t0)})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if !r.on || id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.t0)
	r.stack = r.stack[:len(r.stack)-1]
}

// do runs f inside a span named name.
func (r *recorder) do(name string, f func()) {
	id := r.begin(name)
	f()
	r.end(id)
}

// add records an already-timed span as a child of the innermost open
// span — for work timed on another goroutine or outside the stack
// discipline.
func (r *recorder) add(name string, start, end time.Time) {
	if !r.on {
		return
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Run: r.run, Name: name,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
}

// write saves every span as JSON.
func (r *recorder) write(path string) error {
	b, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTime is span id's duration minus the part of its interval that
// its direct children cover. Children may overlap one another (work run
// in parallel); the covered part is the length of the union of their
// intervals, clipped to the parent's.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return p.dur() - covered
}

// sumByName totals the duration of every span called name under root
// (at any depth) — several calls into one layer within a phase add up.
func sumByName(spans []span, root int, name string) time.Duration {
	var total time.Duration
	for _, s := range spans {
		if s.Name == name && descends(spans, s.ID, root) {
			total += s.dur()
		}
	}
	return total
}

// descends reports whether span id lies strictly under root.
func descends(spans []span, id, root int) bool {
	for p := spans[id].Parent; p >= 0; p = spans[p].Parent {
		if p == root {
			return true
		}
	}
	return false
}

// coverage is the share of root's wall time that its layer spans
// account for: 1 − self(root)/dur(root).
func coverage(spans []span, root int) float64 {
	d := spans[root].dur()
	if d <= 0 {
		return 0
	}
	return 1 - float64(selfTime(spans, root))/float64(d)
}
