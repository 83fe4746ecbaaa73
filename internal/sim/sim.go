// Package sim provides a deterministic discrete-event simulation engine.
//
// A Simulator owns a virtual clock and an event queue. Events scheduled for
// the same instant fire in the order they were scheduled, which makes every
// simulation a pure function of its inputs and its random seed. All
// randomness used by model code should flow from the simulator's Rand so
// that trials are reproducible.
//
// The engine is allocation-free in steady state: events live in a pooled
// arena whose slots are recycled through a free list as events fire or are
// cancelled, ordered by an inlined 4-ary index heap. Hot-path model code
// should prefer ScheduleHandler over Schedule — a typed event carries its
// receiver and payload in the slot itself, where a closure would allocate.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Handler receives typed events scheduled with ScheduleHandler. It exists
// so hot-path model code can dispatch events without allocating a closure
// per event: the receiver and payload ride inside the pooled event slot.
type Handler interface {
	// HandleEvent runs the event with the kind and data values it was
	// scheduled with.
	HandleEvent(kind int32, data any)
}

// Event slot lifecycle states.
const (
	slotFree uint8 = iota
	slotPending
	slotCancelled
	slotFired
)

// eventSlot is one arena entry. Slots are recycled through the free list;
// gen distinguishes a slot's successive tenants so stale Event handles
// cannot affect a later event that happens to reuse their slot.
type eventSlot struct {
	at    time.Duration
	seq   uint64
	fn    func()
	h     Handler
	data  any
	kind  int32
	gen   uint32
	pos   int32 // index in the heap; -1 once removed
	state uint8
}

// Event is a handle to a scheduled callback, returned by the Schedule
// functions so callers can cancel the event before it fires. The zero value
// is an inert handle: Cancel is a no-op and Pending reports false.
type Event struct {
	s   *Simulator
	at  time.Duration
	idx int32
	gen uint32
}

// Time returns the virtual time at which the event will fire (or would
// have fired, if cancelled).
func (e Event) Time() time.Duration { return e.at }

// Cancel prevents the event from firing and releases its queue slot
// immediately, so heavy timer churn cannot grow the queue. Cancelling an
// event that already fired or was already cancelled is a no-op.
func (e Event) Cancel() {
	if e.s == nil {
		return
	}
	sl := &e.s.slots[e.idx]
	if sl.gen != e.gen || sl.state != slotPending {
		return
	}
	e.s.heapRemove(sl.pos)
	sl.state = slotCancelled
	sl.fn, sl.h, sl.data = nil, nil, nil
	e.s.free = append(e.s.free, e.idx)
}

// Cancelled reports whether Cancel was called on the event. Once the
// event's slot has been recycled by a later event it reports false.
func (e Event) Cancelled() bool {
	if e.s == nil {
		return false
	}
	sl := &e.s.slots[e.idx]
	return sl.gen == e.gen && sl.state == slotCancelled
}

// Pending reports whether the event is scheduled and has neither fired nor
// been cancelled.
func (e Event) Pending() bool {
	if e.s == nil {
		return false
	}
	sl := &e.s.slots[e.idx]
	return sl.gen == e.gen && sl.state == slotPending
}

// Simulator is a discrete-event scheduler with a virtual clock.
// Create one with New; the zero value is not usable.
type Simulator struct {
	now   time.Duration
	slots []eventSlot // event arena; slots are recycled via free
	free  []int32     // indices of reusable slots
	heap  []int32     // 4-ary min-heap of slot indices, keyed by (at, seq)
	seq   uint64
	rng   *rand.Rand
	seed  int64
	fired uint64
}

// New returns a Simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Seed returns the seed the simulator was created with. Model code uses it
// to derive per-entity random streams (see Stream) whose sequences depend
// only on each entity's own draws.
func (s *Simulator) Seed() int64 { return s.seed }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled. Cancelled
// events leave the queue immediately and are not counted.
func (s *Simulator) Pending() int { return len(s.heap) }

// Schedule runs fn after delay of virtual time. A negative delay is an
// error in the model; it panics to surface the bug immediately.
func (s *Simulator) Schedule(delay time.Duration, fn func()) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time at, which must not be in the
// past.
func (s *Simulator) ScheduleAt(at time.Duration, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	e, sl := s.alloc(at)
	sl.fn = fn
	return e
}

// ScheduleHandler runs h.HandleEvent(kind, data) after delay of virtual
// time. Unlike Schedule it needs no closure: in steady state it allocates
// nothing, provided data is nil or holds a pointer.
func (s *Simulator) ScheduleHandler(delay time.Duration, h Handler, kind int32, data any) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return s.ScheduleHandlerAt(s.now+delay, h, kind, data)
}

// ScheduleHandlerAt is ScheduleHandler at an absolute virtual time, which
// must not be in the past.
func (s *Simulator) ScheduleHandlerAt(at time.Duration, h Handler, kind int32, data any) Event {
	if h == nil {
		panic("sim: nil event handler")
	}
	e, sl := s.alloc(at)
	sl.h = h
	sl.kind = kind
	sl.data = data
	return e
}

// alloc takes a slot from the free list (or grows the arena), queues it at
// time at, and returns the handle plus the slot for payload assignment.
func (s *Simulator) alloc(at time.Duration) (Event, *eventSlot) {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[idx].gen++
	} else {
		s.slots = append(s.slots, eventSlot{})
		idx = int32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	sl.at = at
	sl.seq = s.seq
	sl.state = slotPending
	s.seq++
	s.heapPush(idx)
	return Event{s: s, at: at, idx: idx, gen: sl.gen}, sl
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (s *Simulator) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	idx := s.heap[0]
	s.heapRemove(0)
	sl := &s.slots[idx]
	s.now = sl.at
	s.fired++
	fn, h, kind, data := sl.fn, sl.h, sl.kind, sl.data
	sl.fn, sl.h, sl.data = nil, nil, nil
	sl.state = slotFired
	// Free before dispatch: an event that reschedules itself (timers, CBR
	// ticks) recycles its own slot.
	s.free = append(s.free, idx)
	if fn != nil {
		fn()
	} else {
		h.HandleEvent(kind, data)
	}
	return true
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled for exactly t do fire.
func (s *Simulator) RunUntil(t time.Duration) {
	for len(s.heap) > 0 && s.slots[s.heap[0]].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// eventLess orders slots by (time, sequence): the sequence tie-break makes
// same-instant events fire in scheduling order.
func (s *Simulator) eventLess(a, b int32) bool {
	sa, sb := &s.slots[a], &s.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// heapPush appends the slot to the 4-ary heap and sifts it up.
func (s *Simulator) heapPush(idx int32) {
	s.heap = append(s.heap, idx)
	pos := len(s.heap) - 1
	s.slots[idx].pos = int32(pos)
	s.heapUp(pos)
}

// heapRemove deletes the element at heap position pos, keeping the heap
// ordered. The removed slot's pos is set to -1.
func (s *Simulator) heapRemove(pos int32) {
	h := s.heap
	last := len(h) - 1
	i := int(pos)
	s.slots[h[i]].pos = -1
	if i < last {
		h[i] = h[last]
		s.slots[h[i]].pos = pos
		s.heap = h[:last]
		s.heapDown(i)
		s.heapUp(i)
	} else {
		s.heap = h[:last]
	}
}

func (s *Simulator) heapUp(j int) {
	h := s.heap
	for j > 0 {
		parent := (j - 1) >> 2
		if !s.eventLess(h[j], h[parent]) {
			break
		}
		h[j], h[parent] = h[parent], h[j]
		s.slots[h[j]].pos = int32(j)
		s.slots[h[parent]].pos = int32(parent)
		j = parent
	}
}

func (s *Simulator) heapDown(j int) {
	h := s.heap
	n := len(h)
	for {
		first := j<<2 + 1
		if first >= n {
			return
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for k := first + 1; k < end; k++ {
			if s.eventLess(h[k], h[best]) {
				best = k
			}
		}
		if !s.eventLess(h[best], h[j]) {
			return
		}
		h[j], h[best] = h[best], h[j]
		s.slots[h[j]].pos = int32(j)
		s.slots[h[best]].pos = int32(best)
		j = best
	}
}
