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
// cancelled. Hot-path model code should prefer ScheduleHandler over
// Schedule — a typed event carries its receiver and payload in the slot
// itself, where a closure would allocate.
//
// The queue is a few FIFO lanes in front of an inlined 4-ary heap whose
// entries carry their (time, seq) key, so sifts never touch the arena.
// A lane is bound to one delay d and holds only events scheduled at now+d.
// The clock never runs backwards and sequence numbers only grow, so such
// events arrive already sorted by (time, seq): a FIFO of them is an exact
// priority queue, and an event joins its lane with an append and leaves it
// with a head pop, never a heap sift. Dispatch takes the (time, seq)
// minimum of the heap top and the lane heads, so the firing order is
// exactly the heap-only order. Packet hops (one link delay, one
// serialization time per packet size) and fixed-period ticks are the
// events lanes serve. A delay takes a free lane only when it recurs and is
// at most maxLaneDelay, so jittered and long protocol timers stay in the
// heap, as does an event scheduled into an empty queue (a push into an
// empty heap is an append, its pop a truncate). QueueStats reports the
// split.
//
// Cancel stays eager in effect: a cancelled heap entry is removed, a
// cancelled lane entry is popped when it is the lane's head or tail and
// tombstoned in place otherwise. A full lane buffer is compacted rather
// than grown whenever tombstones and consumed entries make up half of it,
// so lane storage stays within a constant factor of the live events
// however heavy the cancel/reschedule churn.
package sim

import (
	"fmt"
	"math/bits"
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
	pos   int32 // index in the heap or in the lane's buffer while pending
	state uint8
	q     uint8 // queue holding the event: inHeap or lane index + 1
}

// inHeap is eventSlot.q for an event queued in the heap.
const inHeap = 0

// numLanes is the number of FIFO lanes in front of the heap (at most 8:
// Simulator.active is a byte). A paper trial needs three for its data
// plane (link delay, data serialization, CBR period); the rest carry the
// control plane's serialization times, one per message size.
const numLanes = 8

// maxLaneDelay caps the delays that may bind a lane. A lane is held for as
// long as its oldest event waits, and fixed delays beyond a second belong
// to protocol timers that carry few events each: they would pin lanes the
// data plane needs for seconds at a time.
const maxLaneDelay = time.Second

// lane is a FIFO of events all scheduled with the same delay (kept apart
// in Simulator.laneDelay, a compact array that laneFor scans). The queue is
// buf[head:]; cancelled entries inside it are tombstoned as -1. The head
// and tail are always live, so an empty lane is head == len(buf).
type lane struct {
	buf  []int32
	head int
	dead int // tombstones in buf[head:]
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
	if sl.q == inHeap {
		e.s.heapRemove(sl.pos)
	} else {
		e.s.laneRemove(int(sl.q-1), int(sl.pos))
	}
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
	now    time.Duration
	slots  []eventSlot // event arena; slots are recycled via free
	free   []int32     // indices of reusable slots
	heap   []heapEntry // 4-ary min-heap keyed by (at, seq)
	lanes  [numLanes]lane
	active uint8 // bit k set while lane k is non-empty
	// laneDelay is the delay lane k is bound to. An empty lane keeps its
	// delay until it is rebound; the zero value binds every lane to 0,
	// which is as valid as any binding (the first match wins).
	laneDelay [numLanes]time.Duration
	// missed is a direct-mapped table of delays that recently found no
	// lane, indexed by a folded multiplicative hash; a hit binds a free
	// lane.
	missed [16]time.Duration
	seq    uint64
	rng    *rand.Rand
	seed   int64
	fired  uint64
	laned  uint64 // events dispatched from a lane
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
func (s *Simulator) Pending() int {
	n := len(s.heap)
	for k := range s.lanes {
		l := &s.lanes[k]
		n += len(l.buf) - l.head - l.dead
	}
	return n
}

// QueueStats counts the executed events by the queue they left: a
// fixed-delay lane or the heap. Lane + Heap == Fired.
type QueueStats struct {
	Lane uint64
	Heap uint64
}

// QueueStats reports how the events executed so far were queued. It is
// read-only instrumentation; the split never affects firing order.
func (s *Simulator) QueueStats() QueueStats {
	return QueueStats{Lane: s.laned, Heap: s.fired - s.laned}
}

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
	if len(s.heap) == 0 && s.active == 0 {
		s.heapPush(idx) // into an empty queue: an append, popped by a truncate
	} else if k := s.laneFor(at - s.now); k >= 0 {
		s.lanePush(k, idx)
	} else {
		s.heapPush(idx)
	}
	return Event{s: s, at: at, idx: idx, gen: sl.gen}, sl
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (s *Simulator) Step() bool {
	q, idx := s.next()
	if q < 0 {
		return false
	}
	s.fire(q, idx)
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
	for {
		q, idx := s.next()
		if q < 0 || s.slots[idx].at > t {
			break
		}
		s.fire(q, idx)
	}
	if s.now < t {
		s.now = t
	}
}

// next finds the (at, seq)-minimum pending event among the heap top and
// the lane heads. It returns the queue holding it (inHeap or lane index
// + 1) and its slot, or q = -1 when nothing is pending.
func (s *Simulator) next() (q int, idx int32) {
	q = -1
	var at time.Duration
	var seq uint64
	if len(s.heap) > 0 {
		top := &s.heap[0]
		q, idx, at, seq = inHeap, top.idx, top.at, top.seq
	}
	for m := s.active; m != 0; m &= m - 1 {
		k := bits.TrailingZeros8(m)
		l := &s.lanes[k]
		i := l.buf[l.head]
		sl := &s.slots[i]
		if q < 0 || sl.at < at || sl.at == at && sl.seq < seq {
			q, idx, at, seq = k+1, i, sl.at, sl.seq
		}
	}
	return q, idx
}

// fire dequeues slot idx from queue q (as found by next) and runs it.
func (s *Simulator) fire(q int, idx int32) {
	if q == inHeap {
		s.heapRemove(0)
	} else {
		s.lanePop(q - 1)
		s.laned++
	}
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
}

// laneFor returns the lane for events scheduled d from now, or -1 for the
// heap. Only delays up to maxLaneDelay use lanes. A lane keeps its delay
// after it empties, so a recurring delay finds its lane again directly.
// Otherwise d earns an empty lane only on a recurrence: its slot in the
// small direct-mapped table of recently missed delays already holds it.
// One-off delays (jittered timers) therefore cannot take a lane that packet
// hops would use.
func (s *Simulator) laneFor(d time.Duration) int {
	if d > maxLaneDelay {
		return -1
	}
	for k, ld := range s.laneDelay {
		if ld == d {
			return k
		}
	}
	if s.active == 1<<numLanes-1 {
		return -1
	}
	hi, lo := bits.Mul64(uint64(d), 0x9E3779B97F4A7C15)
	m := &s.missed[(hi^lo)%uint64(len(s.missed))]
	if *m != d {
		*m = d
		return -1
	}
	free := bits.TrailingZeros8(^s.active)
	s.laneDelay[free] = d
	return free
}

// lanePush appends slot idx to lane k. A full buffer whose consumed prefix
// and tombstones make up at least half of it is compacted instead of
// grown. Only pushes grow a buffer, and it grows only while live entries
// fill more than half of it, so its capacity stays below four times the
// lane's peak live count however many entries are cancelled.
func (s *Simulator) lanePush(k int, idx int32) {
	l := &s.lanes[k]
	if len(l.buf) == cap(l.buf) && len(l.buf) > 0 && 2*(l.head+l.dead) >= len(l.buf) {
		s.laneCompact(l)
	}
	sl := &s.slots[idx]
	sl.q = uint8(k + 1)
	sl.pos = int32(len(l.buf))
	l.buf = append(l.buf, idx)
	s.active |= 1 << k
}

// lanePop removes lane k's head entry.
func (s *Simulator) lanePop(k int) {
	l := &s.lanes[k]
	l.head++
	if l.head == len(l.buf) {
		s.laneReset(k)
		return
	}
	// The tail is live, so skipping tombstones stops before the end.
	for l.dead > 0 && l.buf[l.head] < 0 {
		l.head++
		l.dead--
	}
}

// laneRemove cancels the entry at buffer position pos of lane k: a head or
// tail entry leaves outright, an interior one is tombstoned until lanePop
// skips it or lanePush compacts it away.
func (s *Simulator) laneRemove(k, pos int) {
	l := &s.lanes[k]
	switch {
	case pos == len(l.buf)-1:
		l.buf = l.buf[:pos]
		for l.dead > 0 && l.buf[len(l.buf)-1] < 0 {
			l.buf = l.buf[:len(l.buf)-1]
			l.dead--
		}
		if l.head == len(l.buf) {
			s.laneReset(k)
		}
	case pos == l.head:
		s.lanePop(k)
	default:
		l.buf[pos] = -1
		l.dead++
	}
}

// laneReset marks emptied lane k inactive and rewinds it to the start of
// its buffer. The lane keeps its delay.
func (s *Simulator) laneReset(k int) {
	l := &s.lanes[k]
	l.buf = l.buf[:0]
	l.head = 0
	s.active &^= 1 << k
}

// laneCompact moves the lane's live entries to the front of its buffer,
// dropping the consumed prefix and every tombstone.
func (s *Simulator) laneCompact(l *lane) {
	n := 0
	for _, idx := range l.buf[l.head:] {
		if idx >= 0 {
			l.buf[n] = idx
			s.slots[idx].pos = int32(n)
			n++
		}
	}
	l.buf = l.buf[:n]
	l.head, l.dead = 0, 0
}

// heapEntry is one heap element: the event's (at, seq) key, copied out of
// its slot so that sifts compare without touching the arena, and the slot.
type heapEntry struct {
	at  time.Duration
	seq uint64
	idx int32
}

// less orders entries by (time, sequence): the sequence tie-break makes
// same-instant events fire in scheduling order.
func (a *heapEntry) less(b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends the slot to the 4-ary heap and sifts it up.
func (s *Simulator) heapPush(idx int32) {
	sl := &s.slots[idx]
	sl.q = inHeap
	s.heap = append(s.heap, heapEntry{at: sl.at, seq: sl.seq, idx: idx})
	s.heapUp(len(s.heap) - 1)
}

// heapRemove deletes the element at heap position pos, keeping the heap
// ordered.
func (s *Simulator) heapRemove(pos int32) {
	h := s.heap
	last := len(h) - 1
	i := int(pos)
	h[i] = h[last]
	s.heap = h[:last]
	if i == last {
		return
	}
	if i > 0 && h[i].less(&h[(i-1)>>2]) {
		s.heapUp(i)
	} else {
		s.heapDown(i)
	}
}

// heapUp and heapDown sift the entry at position j into place, moving the
// entries it passes and recording every new position in its slot.
func (s *Simulator) heapUp(j int) {
	h := s.heap
	e := h[j]
	for j > 0 {
		parent := (j - 1) >> 2
		if !e.less(&h[parent]) {
			break
		}
		h[j] = h[parent]
		s.slots[h[j].idx].pos = int32(j)
		j = parent
	}
	h[j] = e
	s.slots[e.idx].pos = int32(j)
}

func (s *Simulator) heapDown(j int) {
	h := s.heap
	n := len(h)
	e := h[j]
	for {
		first := j<<2 + 1
		if first >= n {
			break
		}
		best := first
		for k := first + 1; k < min(first+4, n); k++ {
			if h[k].less(&h[best]) {
				best = k
			}
		}
		if !h[best].less(&e) {
			break
		}
		h[j] = h[best]
		s.slots[h[j].idx].pos = int32(j)
		j = best
	}
	h[j] = e
	s.slots[e.idx].pos = int32(j)
}
