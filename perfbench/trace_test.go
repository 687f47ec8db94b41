package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Start: ms(10), End: ms(40)},  // overlaps 2
		{ID: 2, Parent: 0, Start: ms(30), End: ms(50)},  // union with 1: 10–50
		{ID: 3, Parent: 0, Start: ms(60), End: ms(70)},  // disjoint
		{ID: 4, Parent: 0, Start: ms(65), End: ms(68)},  // inside 3
		{ID: 5, Parent: 0, Start: ms(95), End: ms(120)}, // clipped at 100
		{ID: 6, Parent: 1, Start: ms(15), End: ms(20)},  // grandchild: not 0's
	}
	// Covered: 10–50 (40) + 60–70 (10) + 95–100 (5) = 55.
	if got := selfTime(spans, 0); got != ms(45) {
		t.Errorf("self(root) = %v, want 45ms", got)
	}
	if got := selfTime(spans, 1); got != ms(25) {
		t.Errorf("self(child) = %v, want 25ms", got)
	}
	if got := coverage(spans, 0); !near(got, 0.55) {
		t.Errorf("coverage = %v, want 0.55", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder("run-1", true)
	root := r.begin("phase")
	r.do("a", func() {})
	r.do("b", func() { r.do("a", func() {}) })
	r.end(root)
	if len(r.spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(r.spans))
	}
	if r.spans[1].Parent != root || r.spans[3].Parent != 2 {
		t.Errorf("parents = %d, %d; want %d, 2", r.spans[1].Parent, r.spans[3].Parent, root)
	}
	for _, s := range r.spans {
		if s.Run != "run-1" || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}
	want := r.spans[1].dur() + r.spans[3].dur()
	if got := sumByName(r.spans, root, "a"); got != want {
		t.Errorf("sumByName(a) = %v, want %v", got, want)
	}
}

func TestDisabledRecorderRecordsNothing(t *testing.T) {
	r := newRecorder("off", false)
	id := r.begin("x")
	r.do("y", func() {})
	r.end(id)
	r.add("z", time.Now(), time.Now())
	if len(r.spans) != 0 {
		t.Fatalf("disabled recorder kept %d spans", len(r.spans))
	}
}
