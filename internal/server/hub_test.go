package server

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestSlowSubscriberDropped pins the slow-consumer contract at the hub
// level (the socket layer adds kernel buffering that would make the
// eviction point nondeterministic): a subscriber whose buffer is full
// when an event arrives is evicted on the spot, the drop is counted,
// and publishing never blocks — healthy subscribers keep receiving.
func TestSlowSubscriberDropped(t *testing.T) {
	h := newHub()
	slow, _ := h.subscribe(1)    // never drained
	healthy, _ := h.subscribe(8) // drained below

	h.publish([]byte("e1")) // fills slow's single slot
	h.publish([]byte("e2")) // finds slow full: evict

	if !slow.evicted.Load() {
		t.Fatal("slow subscriber was not evicted")
	}
	if h.dropped.Load() != 1 {
		t.Fatalf("dropped counter = %d, want 1", h.dropped.Load())
	}
	if h.count() != 1 {
		t.Fatalf("%d subscribers attached after eviction, want 1", h.count())
	}

	// The slow subscriber's channel delivers what it buffered, then
	// closes.
	if got := <-slow.ch; string(got) != "e1" {
		t.Fatalf("slow subscriber buffered %q, want e1", got)
	}
	if _, ok := <-slow.ch; ok {
		t.Fatal("slow subscriber's channel not closed after eviction")
	}

	// The healthy subscriber saw both events; publish never blocked.
	for i, want := range []string{"e1", "e2"} {
		select {
		case got := <-healthy.ch:
			if string(got) != want {
				t.Fatalf("healthy event %d = %q, want %q", i, got, want)
			}
		case <-time.After(time.Second):
			t.Fatalf("healthy subscriber missing event %d", i)
		}
	}

	// Stream end: the healthy channel closes, and a late subscriber
	// gets an immediate EOF instead of hanging.
	h.closeAll()
	if _, ok := <-healthy.ch; ok {
		t.Fatal("healthy channel not closed by closeAll")
	}
	late, ended := h.subscribe(1)
	if !ended {
		t.Fatal("late subscriber not told the stream already ended")
	}
	if _, ok := <-late.ch; ok {
		t.Fatal("late subscriber's channel not immediately closed")
	}
	if h.sent.Load() != 3 {
		t.Fatalf("sent counter = %d, want 3 enqueues (e1 twice, e2 once)", h.sent.Load())
	}
}

// TestPublishLetsSubscribersRun pins the yield in publish: a publisher
// that never parks, on the only processor, still gets its events to a
// subscriber while it runs instead of at the runtime's 10 ms preemption
// tick. The publisher below is done well inside one tick, so without
// the yield the subscriber sees nothing before it finishes.
func TestPublishLetsSubscribersRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const events = 20
	h := newHub()
	sub, _ := h.subscribe(events)
	var seen atomic.Int64
	go func() {
		for range sub.ch {
			seen.Add(1)
		}
	}()
	for i := 0; i < events; i++ {
		h.publish([]byte("step"))
		for t0 := time.Now(); time.Since(t0) < 100*time.Microsecond; {
			// a step of the simulation: busy, never parked
		}
	}
	if got := seen.Load(); got < events/2 {
		t.Fatalf("subscriber saw %d of %d events while the publisher ran", got, events)
	}
	h.closeAll()
}
