package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// FuzzEventOrder drives the engine and a naive reference queue with the
// same byte-coded program and requires identical firing sequences. The
// reference keeps every pending event in a slice and fires the (time, seq)
// minimum by linear scan, so it is exact by inspection.
//
// Delays come mostly from a small fixed set, so the engine's fixed-delay
// lanes engage while the clock advances; others from a set of 24, so more
// delays compete than there are lanes; timer delays straddle the lanes'
// 1 s cap; and some events use ScheduleAt. Handlers schedule further
// events from inside dispatch. The program also cancels recent (lane
// tail), early (lane head) and arbitrary (interior) events, cancels
// handles that already fired or were cancelled, re-arms timers, and runs
// to RunUntil boundaries that land exactly on pending event times.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 9, 9, 9, 9})
	f.Add([]byte{2, 2, 2, 2, 6, 1, 6, 7, 9, 9, 8, 2, 9})
	f.Add([]byte{1, 1, 7, 0, 1, 7, 0, 1, 7, 1, 2, 8, 1, 9, 9, 9})
	f.Add([]byte{4, 200, 17, 5, 3, 9, 0, 2, 2, 2, 6, 130, 6, 5, 6, 0, 8, 3, 9, 9})
	f.Add([]byte{3, 3, 3, 10, 10, 10, 11, 11, 2, 8, 0, 2, 2, 2, 2, 2, 2, 6, 3, 6, 4, 6, 2})
	f.Add([]byte("\x02\x02\x01\x09\x0a\x07\x02\x07\x03\x08\x02\x09\x09\x06\x81\x0b\x0b\x09\x09\x09\x09"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		checkProgram(t, prog)
	})
}

// TestEventOrderRandomPrograms runs FuzzEventOrder's differential check on
// seeded random programs, so every test run covers long programs that keep
// more distinct delays pending than there are lanes.
func TestEventOrderRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		prog := make([]byte, 400)
		for j := range prog {
			prog[j] = byte(rng.Intn(256))
		}
		checkProgram(t, prog)
	}
}

// checkProgram runs prog on the engine and on the reference and fails at
// the first record where their logs differ.
func checkProgram(t *testing.T, prog []byte) {
	t.Helper()
	got := runFuzzProgram(newEngineQueue(), prog)
	want := runFuzzProgram(newRefQueue(), prog)
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Fatalf("engine and reference diverge at record %d\nprogram:   %v\nengine:    %v\nreference: %v", i, prog, got, want)
		}
	}
}

// fuzzDelays are the fixed delays the program mostly draws from: zero, a
// serialization time, the link delay and a CBR period.
var fuzzDelays = [...]time.Duration{0, 80 * time.Microsecond, time.Millisecond, 50 * time.Millisecond}

// fuzzQueue is the surface the program drives: the engine or the
// reference. Events and timers are named by small integers.
type fuzzQueue interface {
	now() time.Duration
	schedule(at time.Duration, fn func()) int // returns a handle
	cancel(h int)
	reset(timer int, d time.Duration, fn func())
	runUntil(t time.Duration)
	step() bool
	pending() int
}

const fuzzTimers = 4

// runFuzzProgram interprets prog against q and returns the log of firings
// and pending counts. Bytes are consumed in execution order, including by
// handlers, so two exact queues consume them identically.
func runFuzzProgram(q fuzzQueue, prog []byte) []string {
	var log []string
	pos := 0
	next := func() (byte, bool) {
		if pos >= len(prog) {
			return 0, false
		}
		pos++
		return prog[pos-1], true
	}
	nextID := 0
	handles := 0
	var schedule func(at time.Duration)
	fire := func(id int) {
		log = append(log, fmt.Sprintf("fire %d @%v", id, q.now()))
		// A handler consumes one byte: low bits pick how many children to
		// schedule, the rest their fixed delay.
		b, ok := next()
		if !ok {
			return
		}
		for c := 0; c < int(b&3)-1; c++ {
			schedule(q.now() + fuzzDelays[(int(b>>2)+c)%len(fuzzDelays)])
		}
	}
	schedule = func(at time.Duration) {
		id := nextID
		nextID++
		q.schedule(at, func() { fire(id) })
		handles++
	}
	timerIDs := make([]int, fuzzTimers)
	for {
		op, ok := next()
		if !ok {
			break
		}
		switch op % 12 {
		case 0, 1, 2, 3:
			schedule(q.now() + fuzzDelays[op%4])
		case 4: // one of 24 other delays: more than there are lanes
			b, _ := next()
			schedule(q.now() + time.Duration(b%24+1)*7*time.Microsecond)
		case 5: // absolute time, possibly matching a lane's next slot
			b, _ := next()
			schedule(q.now() + time.Duration(b%4)*fuzzDelays[b%4])
		case 6: // cancel: high bit picks among the newest (lane tails),
			// otherwise any handle, including fired and cancelled ones
			b, _ := next()
			if handles == 0 {
				break
			}
			h := int(b&0x7f) % handles
			if b&0x80 != 0 {
				h = handles - 1 - int(b&7)%handles
			}
			q.cancel(h)
		case 7: // timer re-arm at a fixed delay
			b, _ := next()
			tm := int(b) % fuzzTimers
			id := nextID
			nextID++
			timerIDs[tm] = id
			q.reset(tm, fuzzDelays[int(b>>2)%len(fuzzDelays)], func() { fire(timerIDs[tm]) })
		case 8: // run to a boundary that may coincide with event times
			b, _ := next()
			q.runUntil(q.now() + time.Duration(b%8)*fuzzDelays[1+int(b>>3)%3])
			log = append(log, fmt.Sprintf("runUntil -> %v", q.now()))
		case 9:
			q.step()
		case 10: // cancel an early handle: a lane head or interior entry
			if handles > 0 {
				q.cancel(handles / 3)
			}
		case 11: // timer delay on either side of the lanes' delay cap
			b, _ := next()
			tm := int(b) % fuzzTimers
			id := nextID
			nextID++
			timerIDs[tm] = id
			q.reset(tm, time.Duration(b)*7*time.Millisecond, func() { fire(timerIDs[tm]) })
		}
		log = append(log, fmt.Sprintf("pending %d", q.pending()))
	}
	for q.step() {
	}
	log = append(log, fmt.Sprintf("end @%v pending %d", q.now(), q.pending()))
	return log
}

// engineQueue adapts *Simulator to fuzzQueue.
type engineQueue struct {
	s      *Simulator
	events []Event
	timers [fuzzTimers]*Timer
	fns    [fuzzTimers]func()
}

func newEngineQueue() *engineQueue {
	q := &engineQueue{s: New(1)}
	for i := range q.timers {
		i := i
		q.timers[i] = NewTimer(q.s, func() { q.fns[i]() })
	}
	return q
}

func (q *engineQueue) now() time.Duration { return q.s.Now() }
func (q *engineQueue) schedule(at time.Duration, fn func()) int {
	q.events = append(q.events, q.s.ScheduleAt(at, fn))
	return len(q.events) - 1
}
func (q *engineQueue) cancel(h int) { q.events[h].Cancel() }
func (q *engineQueue) reset(tm int, d time.Duration, fn func()) {
	q.fns[tm] = fn
	q.timers[tm].Reset(d)
}
func (q *engineQueue) runUntil(t time.Duration) { q.s.RunUntil(t) }
func (q *engineQueue) step() bool               { return q.s.Step() }
func (q *engineQueue) pending() int             { return q.s.Pending() }

// refQueue is the naive reference: a slice of pending events, fired by a
// linear scan for the (at, seq) minimum.
type refQueue struct {
	t      time.Duration
	seq    uint64
	live   []*refEvent
	events []*refEvent
	timers [fuzzTimers]*refEvent
}

type refEvent struct {
	at      time.Duration
	seq     uint64
	fn      func()
	pending bool
}

func newRefQueue() *refQueue { return &refQueue{} }

func (q *refQueue) now() time.Duration { return q.t }
func (q *refQueue) add(at time.Duration, fn func()) *refEvent {
	e := &refEvent{at: at, seq: q.seq, fn: fn, pending: true}
	q.seq++
	q.live = append(q.live, e)
	return e
}
func (q *refQueue) schedule(at time.Duration, fn func()) int {
	q.events = append(q.events, q.add(at, fn))
	return len(q.events) - 1
}
func (q *refQueue) remove(e *refEvent) {
	if e == nil || !e.pending {
		return
	}
	e.pending = false
	for i, x := range q.live {
		if x == e {
			q.live = append(q.live[:i], q.live[i+1:]...)
			return
		}
	}
}
func (q *refQueue) cancel(h int) { q.remove(q.events[h]) }
func (q *refQueue) reset(tm int, d time.Duration, fn func()) {
	q.remove(q.timers[tm])
	q.timers[tm] = q.add(q.t+d, fn)
}
func (q *refQueue) min() int {
	best := -1
	for i, e := range q.live {
		if best < 0 || e.at < q.live[best].at || e.at == q.live[best].at && e.seq < q.live[best].seq {
			best = i
		}
	}
	return best
}
func (q *refQueue) fireAt(i int) {
	e := q.live[i]
	q.live = append(q.live[:i], q.live[i+1:]...)
	e.pending = false
	q.t = e.at
	e.fn()
}
func (q *refQueue) runUntil(t time.Duration) {
	for i := q.min(); i >= 0 && q.live[i].at <= t; i = q.min() {
		q.fireAt(i)
	}
	if q.t < t {
		q.t = t
	}
}
func (q *refQueue) step() bool {
	i := q.min()
	if i < 0 {
		return false
	}
	q.fireAt(i)
	return true
}
func (q *refQueue) pending() int { return len(q.live) }
