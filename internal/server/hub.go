package server

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// hub fans one job's event stream out to its subscribers. Publishing
// never blocks: each subscriber owns a bounded channel, and a
// subscriber whose channel is full when an event arrives is dropped on
// the spot (its channel closed, the drop counted) instead of being
// allowed to apply backpressure to the simulation step loop. This is
// the server-side half of the slow-consumer contract; the connection
// writer sends a best-effort "dropped" notice when it drains the
// closed channel.
//
// Not blocking is not the same as not yielding. The publisher is a
// step loop that never parks, and when every processor runs one, the
// connection writers it has just made runnable wait for the runtime's
// 10 ms preemption tick: an event then reaches its client 10-70 ms
// late, by a delay that changes from one event to the next. So publish
// yields the processor once after handing an event to at least one
// subscriber. The writer runs at once and the step loop is next in
// line; with nobody subscribed nothing changes. On a daemon with more
// simulating goroutines than processors the yield cedes the rest of
// the time slice to whoever waits: a watched job pays for being
// watched there.
type hub struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool

	dropped atomic.Int64 // subscribers evicted for falling behind
	sent    atomic.Int64 // events enqueued across all subscribers
}

// subscriber is one attached event consumer. ch carries marshalled
// event lines; it is closed exactly once — by eviction, by stream end,
// or by the subscriber detaching itself.
type subscriber struct {
	ch      chan []byte
	once    sync.Once
	evicted atomic.Bool // closed because it was too slow
}

func (s *subscriber) close() { s.once.Do(func() { close(s.ch) }) }

func newHub() *hub {
	return &hub{subs: make(map[*subscriber]struct{})}
}

// subscribe attaches a consumer with the given buffer depth. On a hub
// whose stream already ended it returns ended=true and a subscriber
// with an immediately closed channel: the caller synthesizes the
// terminal replay (final status plus terminator) deterministically
// instead of racing the hub for events that were published before it
// arrived.
func (h *hub) subscribe(buf int) (s *subscriber, ended bool) {
	if buf < 1 {
		buf = 1
	}
	s = &subscriber{ch: make(chan []byte, buf)}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		s.close()
		return s, true
	}
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	return s, false
}

// unsubscribe detaches a consumer (client disconnect).
func (h *hub) unsubscribe(s *subscriber) {
	h.mu.Lock()
	delete(h.subs, s)
	h.mu.Unlock()
	s.close()
}

// publish offers one marshalled event line to every subscriber.
// Subscribers with no free buffer are evicted rather than waited on.
func (h *hub) publish(b []byte) {
	delivered := false
	h.mu.Lock()
	for s := range h.subs {
		select {
		case s.ch <- b:
			h.sent.Add(1)
			delivered = true
		default:
			delete(h.subs, s)
			s.evicted.Store(true)
			s.close()
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
	if delivered {
		runtime.Gosched()
	}
}

// publishFinal atomically delivers one last event to every subscriber
// and ends the stream. Because the delivery and the close happen under
// one lock acquisition, no subscriber can attach between them: every
// attached consumer sees exactly one terminal event before its channel
// closes (or is marked evicted if its buffer is full — it lost events
// and must resync), and anyone arriving later hits the closed hub and
// gets the synthesized terminal replay from subscribe's caller.
func (h *hub) publishFinal(b []byte) {
	h.mu.Lock()
	h.closed = true
	for s := range h.subs {
		select {
		case s.ch <- b:
			h.sent.Add(1)
		default:
			s.evicted.Store(true)
			h.dropped.Add(1)
		}
		s.close()
	}
	h.subs = make(map[*subscriber]struct{})
	h.mu.Unlock()
}

// closeAll ends the stream: every subscriber's channel closes after
// the events already buffered, and future subscribers get an
// immediate EOF.
func (h *hub) closeAll() {
	h.mu.Lock()
	h.closed = true
	subs := make([]*subscriber, 0, len(h.subs))
	for s := range h.subs {
		subs = append(subs, s)
	}
	h.subs = make(map[*subscriber]struct{})
	h.mu.Unlock()
	for _, s := range subs {
		s.close()
	}
}

// count returns the number of attached subscribers.
func (h *hub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}
