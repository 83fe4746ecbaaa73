package bgp

import (
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// discard is a protocol that ignores everything it receives, so alloc
// guards measure only the speaker under test (capture would allocate
// clones of every update).
type discard struct{}

func (discard) Start()                                      {}
func (discard) HandleMessage(netsim.NodeID, netsim.Message) {}
func (discard) LinkDown(netsim.NodeID)                      {}
func (discard) LinkUp(netsim.NodeID)                        {}

// A converged speaker's MRAI flush with nothing pending must not allocate:
// the dirty/pending scans are dense-array reads and the early-out is a
// counter check.
func TestIdleFlushAllocs(t *testing.T) {
	s := sim.New(1)
	net := netsim.FromGraph(s, topology.Ring(4), netsim.DefaultConfig(), nil)
	var protos []*Protocol
	for i := 0; i < 4; i++ {
		p := New(net.Node(netsim.NodeID(i)), BGP3Config())
		net.Node(netsim.NodeID(i)).AttachProtocol(p)
		protos = append(protos, p)
	}
	net.Start()
	s.RunUntil(2 * time.Minute) // long past convergence and all MRAI timers
	p := protos[0]
	avg := testing.AllocsPerRun(100, func() { p.flushAll() })
	if avg != 0 {
		t.Errorf("idle flushAll allocates %.1f objects, want 0", avg)
	}
}

// A flush with announcements held back by a pending MRAI timer must not
// allocate either. While the timer is pending, flushAll takes the held
// path: it scans only the event's dirty list (empty for a bare flushAll,
// one destination per update below) into the reusable withdrawal scratch,
// and re-flagging an already held destination appends nothing to the
// pending list.
func TestHeldFlushAllocs(t *testing.T) {
	s := sim.New(1)
	g := topology.NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	net.Node(0).AttachProtocol(New(net.Node(0), DefaultConfig())) // 30 s MRAI
	net.Node(1).AttachProtocol(discard{})
	net.Node(2).AttachProtocol(discard{})
	net.Start()
	s.RunUntil(time.Second) // initial advertisements consumed the MRAI budget
	p := protoAt(net, 0)
	for i := 0; i < 40; i += 2 {
		net.Node(2).SendControl(0, &Update{Dst: netsim.NodeID(100 + i), Path: []netsim.NodeID{2, netsim.NodeID(100 + i)}})
	}
	s.RunUntil(s.Now() + 100*time.Millisecond) // deliveries leave announcements pending behind the MRAI timer
	if p.pendingCount[1] == 0 || !p.mrai[1].Pending() {
		t.Fatal("test setup: expected announcements held by a pending MRAI timer")
	}
	for i := 0; i < 8; i++ {
		p.flushAll() // warm the scratch buffers
	}
	avg := testing.AllocsPerRun(100, func() { p.flushAll() })
	if avg != 0 {
		t.Errorf("held flushAll allocates %.1f objects, want 0", avg)
	}
	// Flap one held destination: each update dirties it, and the held
	// flush finds nothing to withdraw (it was never advertised).
	ann := &Update{Dst: 100, Path: []netsim.NodeID{2, 7, 100}}
	wd := &Update{Withdrawn: []netsim.NodeID{100}}
	flap := func() {
		p.HandleMessage(2, wd)
		p.HandleMessage(2, ann)
	}
	flap()
	avg = testing.AllocsPerRun(100, flap)
	if avg != 0 {
		t.Errorf("held withdraw+announce allocates %.1f objects, want 0", avg)
	}
	if !p.mrai[1].Pending() {
		t.Fatal("MRAI timer expired during the measurement")
	}
}

func protoAt(net *netsim.Network, id netsim.NodeID) *Protocol {
	return net.Node(id).Protocol().(*Protocol)
}

// Steady-state update processing runs through pooled messages, interned
// paths, and dense RIB rows, so one full announce+withdraw cycle (receive,
// recompute, flush to both neighbors) stays within a small pinned packet
// budget: the only per-message allocation left is the netsim Packet per
// control send (two injected by the test, up to three emitted by the
// speaker per half-cycle).
func TestUpdateCycleAllocBudget(t *testing.T) {
	s := sim.New(1)
	g := topology.NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	cfg := Config{MRAI: time.Millisecond, MRAIJitter: 0}
	net.Node(0).AttachProtocol(New(net.Node(0), cfg))
	net.Node(1).AttachProtocol(discard{})
	net.Node(2).AttachProtocol(discard{})
	net.Start()
	s.RunUntil(time.Second)

	ann := &Update{Dst: 9, Path: []netsim.NodeID{2, 9}}
	wd := &Update{Withdrawn: []netsim.NodeID{9}}
	cycle := func() {
		net.Node(2).SendControl(0, ann)
		s.Run()
		net.Node(2).SendControl(0, wd)
		s.Run()
	}
	for i := 0; i < 16; i++ {
		cycle() // warm the intern table, pools, and event arena
	}
	const budget = 8
	avg := testing.AllocsPerRun(200, cycle)
	if avg > budget {
		t.Errorf("announce+withdraw cycle allocates %.1f objects, want ≤ %d", avg, budget)
	}
}
