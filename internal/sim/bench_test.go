package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineScheduleStep measures the steady-state cost of one
// schedule + dispatch cycle: the queue stays at depth 1, so this is the
// floor below which no simulation can go.
func BenchmarkEngineScheduleStep(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Microsecond, fn)
		s.Step()
	}
}

// BenchmarkEngineDepth measures schedule + dispatch with the queue held at
// a realistic depth, exercising the heap's sift paths.
func BenchmarkEngineDepth(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		b.Run(depthName(depth), func(b *testing.B) {
			s := New(1)
			fn := func() {}
			for i := 0; i < depth; i++ {
				s.Schedule(time.Duration(s.Rand().Int63n(int64(time.Second))), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule(time.Duration(s.Rand().Int63n(int64(time.Second))), fn)
				s.Step()
			}
		})
	}
}

func depthName(d int) string {
	switch d {
	case 16:
		return "depth16"
	case 256:
		return "depth256"
	default:
		return "depth4096"
	}
}

// BenchmarkEngineTimerChurn measures the RIP/BGP timer pattern: arm,
// re-arm (cancelling the pending firing), and eventually fire.
func BenchmarkEngineTimerChurn(b *testing.B) {
	s := New(1)
	t := NewTimer(s, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Reset(time.Millisecond)
		t.Reset(2 * time.Millisecond)
		s.Step()
	}
}

// BenchmarkEngineCancel measures eager cancellation with a populated queue.
func BenchmarkEngineCancel(b *testing.B) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.Schedule(time.Duration(s.Rand().Int63n(int64(time.Hour))), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.Schedule(time.Duration(s.Rand().Int63n(int64(time.Hour))), fn)
		e.Cancel()
	}
}

// netMix is a synthetic load shaped like a paper trial: CBR sources inject
// packets at a fixed period, each packet pays one fixed serialization time
// and one fixed link delay per hop, and routers run jittered periodic
// timers that triggered activity re-arms to a short jittered delay.
type netMix struct {
	s      *Simulator
	timers []*Timer
}

const (
	mixTick int32 = iota
	mixSerDone
	mixPropDone
	mixKinds

	mixPeriod = 50 * time.Millisecond
	mixSer    = 80 * time.Microsecond
	mixLink   = time.Millisecond
	mixHops   = 6
)

// HandleEvent carries a packet's remaining hop count in the event kind,
// above the low kind bits, so the load needs no packet objects.
func (m *netMix) HandleEvent(kind int32, _ any) {
	hops := kind / mixKinds
	switch kind % mixKinds {
	case mixTick:
		m.s.ScheduleHandler(mixPeriod, m, mixTick, nil)
		m.s.ScheduleHandler(mixSer, m, mixHops*mixKinds+mixSerDone, nil)
	case mixSerDone:
		m.s.ScheduleHandler(mixLink, m, hops*mixKinds+mixPropDone, nil)
	case mixPropDone:
		if m.s.Rand().Intn(8) == 0 {
			m.timers[m.s.Rand().Intn(len(m.timers))].Reset(m.s.Jitter(time.Second, 5*time.Second))
		}
		if hops > 1 {
			m.s.ScheduleHandler(mixSer, m, (hops-1)*mixKinds+mixSerDone, nil)
		}
	}
}

// BenchmarkEngineNetMix measures schedule + dispatch under netMix's load,
// the traffic the engine's fixed-delay lanes are built for. It reports the
// share of events dispatched from a lane rather than the heap.
func BenchmarkEngineNetMix(b *testing.B) {
	s := New(1)
	m := &netMix{s: s}
	for i := 0; i < 64; i++ {
		var t *Timer
		t = NewTimer(s, func() { t.Reset(s.Jitter(25*time.Second, 35*time.Second)) })
		t.Reset(s.Jitter(0, 30*time.Second))
		m.timers = append(m.timers, t)
	}
	for i := 0; i < 16; i++ {
		s.ScheduleHandlerAt(s.Jitter(0, mixPeriod), m, mixTick, nil)
	}
	s.RunUntil(time.Second)
	before := s.QueueStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	after := s.QueueStats()
	b.ReportMetric(float64(after.Lane-before.Lane)/float64(b.N), "lane/op")
}
