package sim

import (
	"fmt"
	"testing"
	"time"
)

// Cancel must remove the event from the queue immediately, not lazily at
// pop time: heavy timer churn (BGP MRAI, damping reuse timers) would
// otherwise grow the queue with dead entries.
func TestCancelRemovesEagerly(t *testing.T) {
	s := New(1)
	events := make([]Event, 100)
	for i := range events {
		events[i] = s.Schedule(time.Second, func() {})
	}
	if s.Pending() != 100 {
		t.Fatalf("Pending() = %d, want 100", s.Pending())
	}
	for i, e := range events {
		e.Cancel()
		if got, want := s.Pending(), 100-i-1; got != want {
			t.Fatalf("Pending() = %d after %d cancels, want %d (removal must be eager)", got, i+1, want)
		}
	}
}

// Cancelled slots must return to the free list so a cancel/schedule cycle
// never grows the arena.
func TestCancelRecyclesSlots(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		e := s.Schedule(time.Second, func() {})
		e.Cancel()
	}
	if len(s.slots) != 1 {
		t.Errorf("arena holds %d slots after 1000 cancel cycles, want 1 (slots must be recycled)", len(s.slots))
	}
	if len(s.heap) != 0 {
		t.Errorf("heap holds %d entries after cancelling everything", len(s.heap))
	}
}

// A handle whose slot has been recycled by a later event must be inert:
// its Cancel must not touch the new tenant.
func TestStaleHandleIsInert(t *testing.T) {
	s := New(1)
	stale := s.Schedule(time.Second, func() {})
	stale.Cancel()
	fired := false
	fresh := s.Schedule(2*time.Second, func() { fired = true })
	if fresh.Pending() != true {
		t.Fatal("fresh event not pending")
	}
	stale.Cancel() // must not cancel the slot's new tenant
	if stale.Cancelled() {
		t.Error("stale handle reports Cancelled after its slot was recycled")
	}
	if !fresh.Pending() {
		t.Fatal("stale Cancel removed the recycled slot's new event")
	}
	s.Run()
	if !fired {
		t.Error("recycled event did not fire")
	}
}

// Cancelling events out of order exercises heapRemove's interior-deletion
// path (move the last entry into the hole, sift it up or down); the
// survivors must still fire in time order.
func TestCancelInteriorKeepsOrder(t *testing.T) {
	s := New(1)
	const n = 64
	events := make([]Event, n)
	for i := range events {
		i := i
		events[i] = s.Schedule(time.Duration(n-i)*time.Millisecond, func() {})
		_ = i
	}
	// Cancel every third event, from the middle outwards.
	for i := n / 2; i < n; i += 3 {
		events[i].Cancel()
	}
	for i := n/2 - 1; i >= 0; i -= 3 {
		events[i].Cancel()
	}
	var last time.Duration
	for s.Step() {
		if s.Now() < last {
			t.Fatalf("event fired at %v after one at %v", s.Now(), last)
		}
		last = s.Now()
	}
}

// The scheduling hot path must be allocation-free in steady state: slots
// come from the free list and the heap reuses its backing array.
func TestScheduleStepZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Warm up the arena and heap capacity.
	for i := 0; i < 64; i++ {
		s.Schedule(time.Duration(i), fn)
	}
	s.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		s.Schedule(time.Millisecond, fn)
		s.Step()
	}); avg != 0 {
		t.Errorf("Schedule+Step allocates %.1f objects per op, want 0", avg)
	}
}

type nopHandler struct{}

func (nopHandler) HandleEvent(int32, any) {}

// Typed-event dispatch must also be allocation-free, including the data
// payload when it carries a pointer.
func TestScheduleHandlerZeroAlloc(t *testing.T) {
	s := New(1)
	h := nopHandler{}
	payload := &struct{ x int }{}
	s.ScheduleHandler(0, h, 0, payload)
	s.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		s.ScheduleHandler(time.Millisecond, h, 1, payload)
		s.Step()
	}); avg != 0 {
		t.Errorf("ScheduleHandler+Step allocates %.1f objects per op, want 0", avg)
	}
}

// Timer churn — the dominant control-plane pattern (MRAI, housekeeping,
// damping reuse) — must not allocate once the timer exists.
func TestTimerChurnZeroAlloc(t *testing.T) {
	s := New(1)
	timer := NewTimer(s, func() {})
	timer.Reset(time.Millisecond)
	s.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		timer.Reset(time.Millisecond)
		timer.Reset(2 * time.Millisecond) // cancel + rearm
		s.Run()
	}); avg != 0 {
		t.Errorf("Timer Reset/Reset/fire allocates %.1f objects per op, want 0", avg)
	}
}

// queueStorage is the number of entries the queue holds: heap entries plus
// every lane buffer's entries, including tombstones and the consumed
// prefix.
func (s *Simulator) queueStorage() int {
	n := len(s.heap)
	for k := range s.lanes {
		n += len(s.lanes[k].buf)
	}
	return n
}

// Lane storage must stay bounded under cancel/reschedule churn: a
// cancelled lane entry is tombstoned in place unless it is the lane's head
// or tail, so without compaction a timer re-armed behind other same-delay
// events would grow its lane without bound.
func TestLaneStorageBounded(t *testing.T) {
	s := New(1)
	fn := func() {}
	s.Schedule(time.Hour, fn) // a non-empty queue routes events to lanes
	const d = time.Millisecond
	for i := 0; i < 1000; i++ {
		s.Schedule(d, fn).Cancel()
	}
	if s.laneDelay[0] != d {
		t.Fatalf("lane 0 bound to %v, want %v", s.laneDelay[0], d)
	}
	if got := s.queueStorage(); got != 1 {
		t.Fatalf("queue holds %d entries after 1000 schedule/cancel cycles, want 1", got)
	}
	if len(s.slots) != 2 {
		t.Fatalf("arena holds %d slots after 1000 schedule/cancel cycles, want 2", len(s.slots))
	}

	// Re-arm a timer at d while a rolling window of other events at d keeps
	// the lane non-empty: each Reset tombstones the previous firing, which
	// by then sits between keepers.
	timer := NewTimer(s, fn)
	var keepers []Event
	peak := 0
	for i := 0; i < 1000; i++ {
		keepers = append(keepers, s.Schedule(d, fn))
		timer.Reset(d)
		if len(keepers) > 8 {
			keepers[0].Cancel()
			keepers = keepers[1:]
		}
		if i%50 == 0 {
			s.RunUntil(s.Now() + d/2) // advance the clock without firing
		}
		live := s.Pending()
		if live != len(keepers)+2 {
			t.Fatalf("Pending() = %d, want %d", live, len(keepers)+2)
		}
		if got := s.queueStorage(); got > 4*live {
			t.Fatalf("cycle %d: queue holds %d entries for %d live events (bound 4×live)", i, got, live)
		}
		if got := s.queueStorage(); got > peak {
			peak = got
		}
	}
	if s.QueueStats().Lane != 0 || s.Fired() != 0 {
		t.Fatalf("events fired during the churn: %+v", s.QueueStats())
	}
	t.Logf("peak storage %d entries for %d live events", peak, len(keepers)+2)
}

// Every subset of a lane's entries, cancelled in ascending or descending
// order, must leave exactly the complement to fire in order: this walks
// every head, tail and interior cancel path, including tails and heads
// uncovered by earlier tombstones.
func TestLaneCancelSubsets(t *testing.T) {
	const n = 6
	for mask := 0; mask < 1<<n; mask++ {
		for _, desc := range []bool{false, true} {
			s := New(1)
			s.Schedule(time.Hour, func() {})                 // a non-empty queue routes events to lanes
			s.Schedule(time.Millisecond, func() {}).Cancel() // miss: remembered
			var fired []int
			events := make([]Event, n)
			for i := range events {
				i := i
				events[i] = s.Schedule(time.Millisecond, func() { fired = append(fired, i) })
			}
			if len(s.heap) != 1 || s.active != 1 {
				t.Fatal("events did not all take one lane")
			}
			for j := 0; j < n; j++ {
				i := j
				if desc {
					i = n - 1 - j
				}
				if mask&(1<<i) != 0 {
					events[i].Cancel()
				}
			}
			var want []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) == 0 {
					want = append(want, i)
				}
			}
			if s.Pending() != len(want)+1 {
				t.Fatalf("mask %06b desc=%v: Pending() = %d, want %d", mask, desc, s.Pending(), len(want)+1)
			}
			s.RunUntil(time.Minute)
			if fmt.Sprint(fired) != fmt.Sprint(want) {
				t.Fatalf("mask %06b desc=%v: fired %v, want %v", mask, desc, fired, want)
			}
			if s.active != 0 || s.Pending() != 1 {
				t.Fatalf("mask %06b desc=%v: lane not empty after its events fired", mask, desc)
			}
		}
	}
}
