package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "step", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "force.Accumulate", Start: 5 * ms, End: 65 * ms, Parent: 0},
		{Name: "rebuild", Start: 70 * ms, End: 95 * ms, Parent: 0},
		{Name: "cell.Bin", Start: 72 * ms, End: 80 * ms, Parent: 2},
		{Name: "cell.BuildLinksInto", Start: 80 * ms, End: 94 * ms, Parent: 2},
	}
	want := []time.Duration{15 * ms, 60 * ms, 3 * ms, 8 * ms, 14 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestRecorderNestsAndAggregates(t *testing.T) {
	r := newRecorder("w", "serial", 0, time.Now(), 16, true)
	r.begin("run", iterSetup)
	for iter := 0; iter < 3; iter++ {
		r.begin("step", iter)
		r.begin("force.Accumulate", iter)
		r.end()
		r.end()
	}
	r.end()
	if len(r.spans) != 7 || len(r.open) != 0 || r.Dropped != 0 {
		t.Fatalf("%d spans, %d open, %d dropped", len(r.spans), len(r.open), r.Dropped)
	}
	for i, s := range r.spans {
		switch s.Name {
		case "run":
			if s.Parent != -1 {
				t.Errorf("run has parent %d", s.Parent)
			}
		case "step":
			if s.Parent != 0 {
				t.Errorf("span %d (step) has parent %d, want the run", i, s.Parent)
			}
		default:
			if p := r.spans[s.Parent]; p.Name != "step" || p.Iter != s.Iter {
				t.Errorf("span %d (%s) has parent %s of iteration %d", i, s.Name, p.Name, p.Iter)
			}
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if got := r.aggregate(steady)["step"].N; got != 2 {
		t.Errorf("%d steps in the steady window, want 2 (iteration 0 ends at the first stamp)", got)
	}
	if got := r.aggregate(anyIter)["step"].N; got != 3 {
		t.Errorf("%d steps in all, want 3", got)
	}
}

func TestRecorderOffAndFull(t *testing.T) {
	off := newRecorder("w", "serial", 0, time.Now(), 16, false)
	off.begin("step", 0)
	off.end()
	if len(off.spans) != 0 {
		t.Errorf("a recorder that is off recorded %d spans", len(off.spans))
	}

	full := newRecorder("w", "serial", 0, time.Now(), 2, true)
	full.begin("run", iterSetup)
	full.begin("step", 0)
	full.begin("force.Accumulate", 0) // does not fit
	full.end()
	full.end()
	full.end()
	if len(full.spans) != 2 || full.Dropped != 1 || len(full.open) != 0 {
		t.Errorf("%d spans, %d dropped, %d open; want 2, 1, 0", len(full.spans), full.Dropped, len(full.open))
	}
	if full.spans[1].End == 0 {
		t.Error("the span enclosing a dropped one was never closed")
	}
}

// checkTraceFile loads a trace-event file the way a viewer would and
// checks what the spans promise: every one carries its identity and
// either is a root or names a parent that exists on the same track.
func checkTraceFile(t *testing.T, path string) (spans int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	type track struct{ pid, tid int }
	where := make(map[int]track)
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		spans++
		id, ok := ev.Args["id"].(float64)
		if !ok {
			t.Fatalf("span %q has no id", ev.Name)
		}
		where[int(id)] = track{ev.Pid, ev.Tid}
		for _, key := range []string{"workload", "config", "rank", "iter", "parent"} {
			if _, ok := ev.Args[key]; !ok {
				t.Errorf("span %q has no %s", ev.Name, key)
			}
		}
		if ev.Dur < 0 || ev.Cat == "" {
			t.Errorf("span %q: duration %v, category %q", ev.Name, ev.Dur, ev.Cat)
		}
	}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		parent := int(ev.Args["parent"].(float64))
		if parent == -1 {
			continue
		}
		if at, ok := where[parent]; !ok || at != (track{ev.Pid, ev.Tid}) {
			t.Errorf("span %q: parent %d is not a span of its track", ev.Name, parent)
		}
	}
	return spans
}

func TestWriteTraceRoundTrip(t *testing.T) {
	epoch := time.Now()
	var recs []*recorder
	for rank := 0; rank < 2; rank++ {
		r := newRecorder("fine2d", "mpi", rank, epoch, 8, true)
		r.begin("run", iterSetup)
		r.begin("step", 0)
		r.begin("decomp.RefreshHalos", 0)
		r.end()
		r.end()
		r.end()
		recs = append(recs, r)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, recs); err != nil {
		t.Fatal(err)
	}
	if got := checkTraceFile(t, path); got != 6 {
		t.Errorf("%d spans in the file, want 6", got)
	}
}
