package bgp

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/routing"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// received is one update a speaker received: when, from whom, and a copy
// that outlives the pooled original.
type received struct {
	at   time.Duration
	from netsim.NodeID
	u    *Update
}

// recorder is a speaker that logs every update it receives.
type recorder struct {
	*Protocol
	log []received
}

func (r *recorder) HandleMessage(from netsim.NodeID, msg netsim.Message) {
	if u, ok := msg.(*Update); ok {
		c := &Update{Withdrawn: append([]routing.NodeID(nil), u.Withdrawn...), Dst: u.Dst}
		if u.Path != nil {
			c.Path = append([]routing.NodeID(nil), u.Path...)
		}
		r.log = append(r.log, received{r.node.Sim().Now(), from, c})
	}
	r.Protocol.HandleMessage(from, msg)
}

// failureStream is the update stream one BGP3 speaker on the 7×7 degree-4
// mesh received: warm-up messages up to the failure of a central link,
// then the failure window's.
type failureStream struct {
	size    int
	node    netsim.NodeID
	nbrs    []netsim.NodeID
	warmup  []received
	window  []received
	endTime time.Duration
}

var (
	recordOnce     sync.Once
	recordedStream failureStream
)

// recordFailureStream runs the mesh to convergence, fails the link between
// the two central nodes, and keeps the stream of the speaker (not an
// endpoint of that link) that received the most updates in the 60 s after.
func recordFailureStream() failureStream {
	recordOnce.Do(func() {
		const failAt, window = 100 * time.Second, 60 * time.Second
		m, err := topology.NewMesh(7, 7, 4)
		if err != nil {
			panic(err)
		}
		s := sim.New(1)
		net := netsim.FromGraph(s, m.Graph, netsim.DefaultConfig(), nil)
		recs := make([]*recorder, net.Len())
		for i := range recs {
			node := net.Node(netsim.NodeID(i))
			recs[i] = &recorder{Protocol: New(node, BGP3Config())}
			node.AttachProtocol(recs[i])
		}
		net.Start()
		s.RunUntil(failAt)
		const a, b = 24, 25
		net.FailLink(a, b)
		s.RunUntil(failAt + window)

		best, bestCount := -1, 0
		for i, r := range recs {
			count := 0
			for _, m := range r.log {
				if m.at >= failAt {
					count++
				}
			}
			if i != a && i != b && count > bestCount {
				best, bestCount = i, count
			}
		}
		log := recs[best].log
		split := len(log) - bestCount
		recordedStream = failureStream{
			size:    net.Len(),
			node:    netsim.NodeID(best),
			nbrs:    net.Node(netsim.NodeID(best)).Neighbors(),
			warmup:  log[:split],
			window:  log[split:],
			endTime: failAt + window,
		}
	})
	return recordedStream
}

// replaySpeaker builds the recorded speaker alone, with its neighbors as
// discarding stubs, and feeds it the warm-up stream.
func (fs failureStream) replaySpeaker() (*sim.Simulator, *Protocol) {
	g := topology.NewGraph(fs.size)
	for _, nb := range fs.nbrs {
		g.AddEdge(fs.node, nb)
	}
	s := sim.New(1)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	for i := 0; i < net.Len(); i++ {
		net.Node(netsim.NodeID(i)).AttachProtocol(discard{})
	}
	p := New(net.Node(fs.node), BGP3Config())
	net.Node(fs.node).AttachProtocol(p)
	net.Start()
	replay(s, p, fs.warmup)
	return s, p
}

// replay delivers each recorded update at its recorded time, running the
// speaker's MRAI timers in between.
func replay(s *sim.Simulator, p *Protocol, msgs []received) {
	for _, m := range msgs {
		s.RunUntil(m.at)
		p.HandleMessage(m.from, m.u)
	}
}

// BenchmarkHandleMessage measures one speaker's receive, decision and
// flush path in isolation.
//
// failure-window replays what the busiest BGP3 speaker on the 7×7 mesh
// received in the minute after a central link failed (one op = the whole
// window, MRAI expiries included; setup and warm-up are untimed).
//
// held/pending=N holds N announcements behind a 30 s per-neighbor MRAI
// timer toward each of three neighbors, then alternately withdraws and
// re-announces one of them (one op = one update). Only that destination
// is dirty, so a held flush's cost should not grow with N.
func BenchmarkHandleMessage(b *testing.B) {
	b.Run("failure-window", func(b *testing.B) {
		fs := recordFailureStream()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, p := fs.replaySpeaker()
			b.StartTimer()
			replay(s, p, fs.window)
			s.RunUntil(fs.endTime)
		}
		b.ReportMetric(float64(len(fs.window)), "msgs/op")
	})
	for _, held := range []int{64, 1024, 8192} {
		b.Run(fmt.Sprintf("held/pending=%d", held), func(b *testing.B) {
			p := heldSpeaker(held)
			const dst = 10
			ann := &Update{Dst: dst, Path: []routing.NodeID{1, 5, dst}}
			wd := &Update{Withdrawn: []routing.NodeID{dst}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					p.HandleMessage(1, wd)
				} else {
					p.HandleMessage(1, ann)
				}
			}
		})
	}
}

// heldSpeaker returns speaker 0 with neighbors 1, 2 and 3 (discarding
// stubs) and held announcements for destinations 4 to held+3 pending
// toward each neighbor behind the MRAI timer its initial advertisement
// armed. The clock never advances, so the timer stays pending.
func heldSpeaker(held int) *Protocol {
	g := topology.NewGraph(held + 4)
	for nb := 1; nb <= 3; nb++ {
		g.AddEdge(0, topology.NodeID(nb))
	}
	s := sim.New(1)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	for i := 0; i < net.Len(); i++ {
		net.Node(netsim.NodeID(i)).AttachProtocol(discard{})
	}
	p := New(net.Node(0), DefaultConfig())
	net.Node(0).AttachProtocol(p)
	net.Start()
	for d := routing.NodeID(4); d < routing.NodeID(held+4); d++ {
		p.HandleMessage(1, &Update{Dst: d, Path: []routing.NodeID{1, d}})
	}
	for nb := 1; nb <= 3; nb++ {
		if !p.mrai[nb].Pending() || p.pendingCount[nb] != held {
			panic("heldSpeaker: announcements not held behind the MRAI timer")
		}
	}
	return p
}
