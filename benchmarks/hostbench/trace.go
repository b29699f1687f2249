package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// Iteration labels of spans outside the measured iterations. Measured
// iterations are numbered from 0; the steady window — the part the
// end-to-end metrics time — is iterations 1 and up, because the first
// stamp is taken when iteration 0 ends.
const (
	iterSetup  = -1 << 20 // placement and the first list build
	iterWarmup = -1 << 19 // warm-up iterations are iterWarmup+k
)

// span is one timed interval: a call into a layer, or a grouping
// interval of the reference loop itself (run, setup, step, rebuild).
type span struct {
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Parent int32 // index of the enclosing span in the same recorder, -1 for a root
	Iter   int32
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// layerOf is the part of a span name before the first dot: the package
// whose public function the span wraps, or "loop" for the reference
// loop's own grouping spans.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return "loop"
}

// recorder collects the spans of one goroutine (one rank of one
// reference run, or one service client) in a buffer allocated up
// front: recording a span is two clock reads and one append within
// capacity, and nothing is written anywhere until the run is over. A
// recorder that is off records nothing, which is how the tracing
// overhead itself is measured.
type recorder struct {
	Workload string
	Config   string
	Rank     int

	on      bool
	epoch   time.Time
	spans   []span
	open    []int32 // stack of open spans; -1 for one that did not fit the buffer
	Dropped int     // spans that did not fit
}

func newRecorder(workload, config string, rank int, epoch time.Time, capacity int, on bool) *recorder {
	r := &recorder{Workload: workload, Config: config, Rank: rank, on: on, epoch: epoch}
	if on {
		r.spans = make([]span, 0, capacity)
		r.open = make([]int32, 0, 16)
	}
	return r
}

// begin opens a span as a child of the innermost open one.
func (r *recorder) begin(name string, iter int) {
	if !r.on {
		return
	}
	if len(r.spans) == cap(r.spans) {
		r.Dropped++
		r.open = append(r.open, -1)
		return
	}
	parent := int32(-1)
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] >= 0 {
			parent = r.open[i]
			break
		}
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Iter: int32(iter)})
	r.open = append(r.open, int32(len(r.spans)-1))
	r.spans[len(r.spans)-1].Start = time.Since(r.epoch)
}

// end closes the innermost open span.
func (r *recorder) end() {
	if !r.on {
		return
	}
	now := time.Since(r.epoch)
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	if id >= 0 {
		r.spans[id].End = now
	}
}

// add records a span whose endpoints were measured elsewhere (the
// service clients stamp protocol phases as they go) and returns its
// index for use as a parent.
func (r *recorder) add(name string, start, end time.Duration, parent int32, iter int) int32 {
	if !r.on || len(r.spans) == cap(r.spans) {
		if r.on {
			r.Dropped++
		}
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Iter: int32(iter)})
	return int32(len(r.spans) - 1)
}

// selfTimes returns, per span, its duration minus the part of it its
// direct children cover: the time spent in the span's own code.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] = spans[i].dur()
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// agg sums spans.
type agg struct {
	Self  time.Duration // self time
	Total time.Duration // whole durations
	N     int
}

// cellKey names what the spans of one name add up to in one iteration
// of one rank (several blocks mean several spans of a name per step).
type cellKey struct {
	Name string
	Iter int32
}

// cells sums a recorder's spans per name and iteration.
func (r *recorder) cells() map[cellKey]agg {
	out := make(map[cellKey]agg)
	self := selfTimes(r.spans)
	for i := range r.spans {
		s := &r.spans[i]
		k := cellKey{s.Name, s.Iter}
		a := out[k]
		a.Self += self[i]
		a.Total += s.dur()
		a.N++
		out[k] = a
	}
	return out
}

// fastest merges the recorders of one rank over several repetitions of
// the same run: per name and iteration, the repetition that spent least.
// Every repetition makes the same calls on the same data, so what one of
// them spent more than another is the host's doing (see simStats.iterMs).
func fastest(reps []*recorder) map[cellKey]agg {
	out := reps[0].cells()
	for _, r := range reps[1:] {
		for k, b := range r.cells() {
			if a, ok := out[k]; ok {
				a.Self, a.Total = min(a.Self, b.Self), min(a.Total, b.Total)
				out[k] = a
			}
		}
	}
	return out
}

// sumCells adds the cells of the iterations keep accepts, per span name.
func sumCells(cells map[cellKey]agg, keep func(iter int32) bool) map[string]agg {
	out := make(map[string]agg)
	for k, c := range cells {
		if !keep(k.Iter) {
			continue
		}
		a := out[k.Name]
		a.Self += c.Self
		a.Total += c.Total
		a.N += c.N
		out[k.Name] = a
	}
	return out
}

// aggregate sums one recorder's self time, duration and count per span
// name over the iterations keep accepts.
func (r *recorder) aggregate(keep func(iter int32) bool) map[string]agg {
	return sumCells(r.cells(), keep)
}

func steady(iter int32) bool  { return iter >= 1 }
func anyIter(iter int32) bool { return true }

// traceEvent is one entry of the Chrome/Perfetto trace-event format:
// a complete ("X") event with microsecond timestamps, or a metadata
// ("M") event naming a process or thread track.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object form of the format, which chrome://tracing
// and ui.perfetto.dev both open.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeTrace writes every recorder's spans as one trace file: one
// process track per workload/configuration, one thread track per rank.
// Each span carries its own id and its parent's in args, so a reader
// can rebuild the call tree without relying on interval nesting.
func writeTrace(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(ev *traceEvent) error {
		if !first {
			w.WriteByte(',')
		}
		first = false
		return enc.Encode(ev) // the newline Encode adds is legal JSON whitespace
	}
	pids := make(map[string]int)
	base := 0
	for _, r := range recs {
		track := r.Workload + "/" + r.Config
		pid, seen := pids[track]
		if !seen {
			pid = len(pids) + 1
			pids[track] = pid
			if err = emit(&traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": track}}); err != nil {
				break
			}
		}
		if err = emit(&traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: r.Rank, Args: map[string]any{"name": fmt.Sprintf("rank %d", r.Rank)}}); err != nil {
			break
		}
		for i := range r.spans {
			s := &r.spans[i]
			parent := -1
			if s.Parent >= 0 {
				parent = base + int(s.Parent)
			}
			if err = emit(&traceEvent{
				Name: s.Name, Cat: layerOf(s.Name), Ph: "X", Ts: micros(s.Start), Dur: micros(s.dur()), Pid: pid, Tid: r.Rank,
				Args: map[string]any{
					"id": base + i, "parent": parent,
					"workload": r.Workload, "config": r.Config, "rank": r.Rank, "iter": s.Iter,
				},
			}); err != nil {
				break
			}
		}
		if err != nil {
			break
		}
		base += len(r.spans)
	}
	if err == nil {
		fmt.Fprint(w, "]}\n")
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
