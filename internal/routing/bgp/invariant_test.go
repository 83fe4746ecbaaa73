package bgp

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/routing"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// injector stands in for an external peer: the test makes it send
// hand-built updates, and it checks that every withdrawal batch it
// receives is strictly ascending, the order a full flush produces.
type injector struct{ err error }

func (*injector) Start()                 {}
func (*injector) LinkDown(netsim.NodeID) {}
func (*injector) LinkUp(netsim.NodeID)   {}
func (in *injector) HandleMessage(from netsim.NodeID, msg netsim.Message) {
	u := msg.(*Update)
	for i := 1; i < len(u.Withdrawn); i++ {
		if u.Withdrawn[i] <= u.Withdrawn[i-1] && in.err == nil {
			in.err = fmt.Errorf("withdrawal batch from %d not ascending: %v", from, u.Withdrawn)
		}
	}
}

// checkFlushInvariants checks the state the held flush relies on and
// preserves, toward every up neighbor n:
//   - with withdrawals not damped, no destination has best == noPath and
//     a non-empty ribOut[n] (every flush withdraws them all);
//   - every destination with best != ribOut[n] is flagged toward n;
//   - pendList[n] is exactly the flagged set, without duplicates, and
//     pendingCount[n] counts it;
//   - nothing sendable waits: a destination with best != ribOut[n] is
//     held by a pending MRAI timer that fires no later than its own
//     per-destination deadline, when there is one.
func checkFlushInvariants(p *Protocol) error {
	now := p.node.Sim().Now()
	for n, up := range p.up {
		if !up {
			continue
		}
		out, pend := p.ribOut[n], p.pending[n]
		flagged := 0
		for d, best := range p.best {
			if !p.cfg.DampWithdrawals && best == noPath && out[d] != noPath {
				return fmt.Errorf("node %d: dst %d unreachable but still advertised to %d", p.node.ID(), d, n)
			}
			if best != out[d] && !pend[d] {
				return fmt.Errorf("node %d: dst %d differs from ribOut[%d] but is not pending", p.node.ID(), d, n)
			}
			if best != out[d] {
				t := p.mrai[n]
				if !t.Pending() {
					return fmt.Errorf("node %d: dst %d waits toward %d with no MRAI timer pending", p.node.ID(), d, n)
				}
				if p.cfg.PerDestMRAI {
					if dl := p.deadline[n][d]; dl < now || t.Deadline() > dl {
						return fmt.Errorf("node %d: dst %d waits toward %d past its deadline %v (now %v, timer %v)", p.node.ID(), d, n, dl, now, t.Deadline())
					}
				}
			}
			if pend[d] {
				flagged++
			}
		}
		if p.pendingCount[n] != flagged {
			return fmt.Errorf("node %d: pendingCount[%d] = %d, %d flagged", p.node.ID(), n, p.pendingCount[n], flagged)
		}
		if len(p.pendList[n]) != flagged {
			return fmt.Errorf("node %d: pendList[%d] has %d entries, %d flagged: %v", p.node.ID(), n, len(p.pendList[n]), flagged, p.pendList[n])
		}
		seen := make([]bool, len(pend))
		for _, d := range p.pendList[n] {
			if !pend[d] || seen[d] {
				return fmt.Errorf("node %d: pendList[%d] = %v is not the flagged set", p.node.ID(), n, p.pendList[n])
			}
			seen[d] = true
		}
	}
	return nil
}

// TestHeldFlushInvariants runs seeded random programs against small
// networks of speakers and checks checkFlushInvariants on every speaker
// after every event. Two injector peers announce and withdraw random
// paths (including looped ones and destinations outside the network),
// and links fail and recover at random times, so flushes run held behind
// pending MRAI timers, on timer expiry, and on session resets.
func TestHeldFlushInvariants(t *testing.T) {
	damping := testDampingConfig()
	damping.HalfLife = 10 * time.Second
	bgp3 := BGP3Config()
	configs := []struct {
		name string
		cfg  Config
	}{
		{"bgp", DefaultConfig()},
		{"bgp3", bgp3},
		{"damping", Config{MRAI: bgp3.MRAI, MRAIJitter: bgp3.MRAIJitter, Damping: &damping}},
		{"damp-withdrawals", Config{MRAI: bgp3.MRAI, MRAIJitter: bgp3.MRAIJitter, DampWithdrawals: true}},
		{"per-dest", Config{MRAI: bgp3.MRAI, MRAIJitter: bgp3.MRAIJitter, PerDestMRAI: true}},
	}
	const programs = 25
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= programs; seed++ {
				if err := runFlushProgram(seed, c.cfg); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// runFlushProgram builds a random connected graph of speakers with two
// injector peers, schedules a random program of updates and link events,
// and steps the simulator, checking the invariants after every event.
func runFlushProgram(seed int64, cfg Config) error {
	rng := rand.New(rand.NewSource(seed))
	speakers := 3 + rng.Intn(5)
	size := speakers + 2
	g := topology.NewGraph(size)
	for i := 1; i < speakers; i++ {
		g.AddEdge(topology.NodeID(i), topology.NodeID(rng.Intn(i)))
	}
	for extra := rng.Intn(speakers); extra > 0; extra-- {
		a, b := topology.NodeID(rng.Intn(speakers)), topology.NodeID(rng.Intn(speakers))
		if a != b && !g.HasEdge(a, b) {
			g.AddEdge(a, b)
		}
	}
	stubs := []netsim.NodeID{netsim.NodeID(speakers), netsim.NodeID(speakers + 1)}
	peerOf := make(map[netsim.NodeID]netsim.NodeID)
	for _, st := range stubs {
		peer := netsim.NodeID(rng.Intn(speakers))
		g.AddEdge(topology.NodeID(st), topology.NodeID(peer))
		peerOf[st] = peer
	}
	edges := g.Edges()

	s := sim.New(seed)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	var protos []*Protocol
	for i := 0; i < speakers; i++ {
		p := New(net.Node(netsim.NodeID(i)), cfg)
		net.Node(netsim.NodeID(i)).AttachProtocol(p)
		protos = append(protos, p)
	}
	var injectors []*injector
	for _, st := range stubs {
		in := &injector{}
		net.Node(st).AttachProtocol(in)
		injectors = append(injectors, in)
	}

	// Destinations: every node plus a few outside the network, which the
	// speakers' tables grow to hold.
	randDst := func() routing.NodeID { return routing.NodeID(rng.Intn(size + 3)) }
	const horizon = 200 * time.Second
	for op := 0; op < 120; op++ {
		at := time.Duration(rng.Int63n(int64(horizon)))
		st := stubs[rng.Intn(len(stubs))]
		switch k := rng.Intn(10); {
		case k < 5: // announce a path, sometimes through the peer (a loop)
			dst := randDst()
			path := []routing.NodeID{st}
			for hops := rng.Intn(4); hops > 0; hops-- {
				path = append(path, routing.NodeID(rng.Intn(size+3)))
			}
			path = append(path, dst)
			u := &Update{Dst: dst, Path: path}
			s.ScheduleAt(at, func() { net.Node(st).SendControl(peerOf[st], u) })
		case k < 8: // withdraw a few destinations
			u := &Update{}
			for w := 1 + rng.Intn(3); w > 0; w-- {
				u.Withdrawn = append(u.Withdrawn, randDst())
			}
			s.ScheduleAt(at, func() { net.Node(st).SendControl(peerOf[st], u) })
		default: // fail a link, restoring it after a random outage
			e := edges[rng.Intn(len(edges))]
			down := time.Duration(rng.Int63n(int64(40 * time.Second)))
			s.ScheduleAt(at, func() { net.FailLink(e.A, e.B) })
			s.ScheduleAt(at+down, func() { net.RestoreLink(e.A, e.B) })
		}
	}

	net.Start()
	for step := 0; ; step++ {
		for _, p := range protos {
			if err := checkFlushInvariants(p); err != nil {
				return fmt.Errorf("after event %d at %v: %w", step, s.Now(), err)
			}
		}
		for _, in := range injectors {
			if in.err != nil {
				return in.err
			}
		}
		if !s.Step() {
			return nil
		}
	}
}
