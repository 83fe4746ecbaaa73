package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"routeconv/internal/obs"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// Overlapping adjacent node failures on a 3-node line: fail 0, fail 1
// (link 0-1 is already down, so 1's failure does not take it), recover 0
// (1 is still down), recover 1. Every link must end up, and both ends of
// 0-1 must hear LinkUp once detection runs.
func TestOverlappingNodeRecovery(t *testing.T) {
	s := sim.New(1)
	n := FromGraph(s, topology.Line(3), DefaultConfig(), nil)
	p0, p1 := &testProto{}, &testProto{}
	n.Node(0).AttachProtocol(p0)
	n.Node(1).AttachProtocol(p1)
	n.Start()
	if took := n.FailNode(0); took != 1 {
		t.Errorf("FailNode(0) took %d links, want 1", took)
	}
	if took := n.FailNode(1); took != 1 {
		t.Errorf("FailNode(1) took %d links, want 1 (0-1 was already down)", took)
	}
	s.RunUntil(time.Second)
	n.RecoverNode(0)
	if n.Link(0, 1).Up() {
		t.Error("link 0-1 up while node 1 is still failed")
	}
	n.RecoverNode(1)
	s.RunUntil(2 * time.Second)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}} {
		if !n.Link(e[0], e[1]).Up() {
			t.Errorf("link %d-%d still down after both endpoints recovered", e[0], e[1])
		}
	}
	if len(p0.upFrom) != 1 || len(p1.upFrom) != 2 {
		t.Errorf("LinkUp notifications: node 0 %v, node 1 %v; want [1] and both neighbors", p0.upFrom, p1.upFrom)
	}
}

// A link's own failure and its endpoints' failures are independent inputs:
// restoring the link while an endpoint is down clears only the link's own
// failure, and failing it while an endpoint is down keeps it down after
// the endpoint recovers.
func TestLinkFailureOutlivesNodeRecovery(t *testing.T) {
	s := sim.New(1)
	n := FromGraph(s, topology.Line(3), DefaultConfig(), nil)
	n.Start()
	l := n.Link(0, 1)

	n.FailLink(0, 1)
	n.FailNode(1)
	n.RestoreLink(0, 1)
	if l.Up() {
		t.Error("restore link brought 0-1 up while node 1 is failed")
	}
	n.RecoverNode(1)
	if !l.Up() {
		t.Error("0-1 down after its own failure was cleared and node 1 recovered")
	}

	n.FailNode(1)
	n.FailLink(0, 1)
	n.RecoverNode(1)
	if l.Up() {
		t.Error("0-1 up after node 1 recovered, but its own failure was never cleared")
	}
	if !n.Link(1, 2).Up() {
		t.Error("1-2 down after node 1 recovered")
	}
	n.RestoreLink(0, 1)
	if !l.Up() {
		t.Error("0-1 down after restore with both endpoints up")
	}
}

// viewProto tracks a node's protocol view of each neighbor link from the
// LinkDown/LinkUp notifications it receives.
type viewProto struct{ down map[NodeID]bool }

func (p *viewProto) Start()                        {}
func (p *viewProto) HandleMessage(NodeID, Message) {}
func (p *viewProto) LinkDown(nb NodeID)            { p.down[nb] = true }
func (p *viewProto) LinkUp(nb NodeID)              { p.down[nb] = false }

// linkModel is the naive reference for link liveness: a link is up iff it
// is not failed in its own right and neither endpoint is failed. costed
// tracks a graceful cost-out, which only the protocols see and which a
// physical repair clears.
type linkModel struct {
	linkFailed map[topology.Edge]bool
	nodeFailed map[NodeID]bool
	costed     map[topology.Edge]bool
}

func (m *linkModel) up(e topology.Edge) bool {
	return !m.linkFailed[e] && !m.nodeFailed[e.A] && !m.nodeFailed[e.B]
}

// TestRandomLinkStateAgainstModel drives random sequences of link
// failures and repairs, node failures and recoveries, and cost-out/in on
// small seeded graphs carrying CBR traffic. After every operation each
// link's state must match the reference model; once the detection delay
// has passed, each end's protocol view must too. At the end every data
// packet must be accounted for: delivered + dropped + in flight == sent.
func TestRandomLinkStateAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { randomLinkStateTrial(t, seed) })
	}
}

func randomLinkStateTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g := topology.Random(4+rng.Intn(6), 3, seed)
	s := sim.New(seed)
	cfg := Config{
		LinkRateBps: 1_000_000,
		LinkDelay:   time.Millisecond,
		DetectDelay: 20 * time.Millisecond,
		QueueLimit:  4,
	}
	n := FromGraph(s, g, cfg, nil)
	met := obs.NewMetrics()
	n.Instrument(met, nil)
	views := make([]*viewProto, n.Len())
	for i := range views {
		views[i] = &viewProto{down: make(map[NodeID]bool)}
		n.Node(NodeID(i)).AttachProtocol(views[i])
	}
	// Static shortest-path routes for a few CBR flows; failures then turn
	// into link-failure and no-route drops, never silent loss.
	const stop = 3 * time.Second
	for f := 0; f < 3; f++ {
		src, dst := NodeID(rng.Intn(n.Len())), NodeID(rng.Intn(n.Len()))
		if src == dst {
			continue
		}
		path, ok := g.ShortestPath(src, dst)
		if !ok {
			continue
		}
		for i := 0; i+1 < len(path); i++ {
			n.Node(path[i]).SetRoute(dst, path[i+1])
		}
		StartCBR(n.Node(src), dst, 5*time.Millisecond, 500, 16, 0, stop)
	}
	n.Start()

	edges := g.Edges()
	m := &linkModel{
		linkFailed: make(map[topology.Edge]bool),
		nodeFailed: make(map[NodeID]bool),
		costed:     make(map[topology.Edge]bool),
	}
	check := func(op string) {
		t.Helper()
		for _, e := range edges {
			if got, want := n.Link(e.A, e.B).Up(), m.up(e); got != want {
				t.Fatalf("after %s: link %d-%d Up() = %v, model says %v", op, e.A, e.B, got, want)
			}
		}
	}
	checkViews := func(op string) {
		t.Helper()
		for _, e := range edges {
			want := !m.up(e) || m.costed[e]
			if views[e.A].down[e.B] != want || views[e.B].down[e.A] != want {
				t.Fatalf("after %s: protocol view of %d-%d = %v/%v, model says down=%v",
					op, e.A, e.B, views[e.A].down[e.B], views[e.B].down[e.A], want)
			}
		}
	}
	// apply mutates the model, clearing the cost-out of every link that
	// comes back up the way a physical repair's detection does.
	apply := func(mutate func()) {
		before := make(map[topology.Edge]bool, len(edges))
		for _, e := range edges {
			before[e] = m.up(e)
		}
		mutate()
		for _, e := range edges {
			if !before[e] && m.up(e) {
				m.costed[e] = false
			}
		}
	}

	now := time.Duration(0)
	for now < stop {
		e := edges[rng.Intn(len(edges))]
		id := NodeID(rng.Intn(n.Len()))
		var op string
		switch rng.Intn(6) {
		case 0:
			op = fmt.Sprintf("fail link %d-%d", e.A, e.B)
			n.FailLink(e.A, e.B)
			apply(func() { m.linkFailed[e] = true })
		case 1:
			op = fmt.Sprintf("restore link %d-%d", e.A, e.B)
			n.RestoreLink(e.A, e.B)
			apply(func() { m.linkFailed[e] = false })
		case 2:
			op = fmt.Sprintf("fail node %d", id)
			wantTook := 0
			if !m.nodeFailed[id] {
				for _, e := range edges {
					if (e.A == id || e.B == id) && m.up(e) {
						wantTook++
					}
				}
			}
			took := n.FailNode(id)
			apply(func() { m.nodeFailed[id] = true })
			if took != wantTook {
				t.Fatalf("%s took %d links, model says %d", op, took, wantTook)
			}
		case 3:
			op = fmt.Sprintf("recover node %d", id)
			n.RecoverNode(id)
			apply(func() { m.nodeFailed[id] = false })
		case 4:
			op = fmt.Sprintf("cost out %d-%d", e.A, e.B)
			n.CostOutLink(e.A, e.B)
			if m.up(e) {
				m.costed[e] = true
			}
		case 5:
			op = fmt.Sprintf("cost in %d-%d", e.A, e.B)
			n.CostInLink(e.A, e.B)
			m.costed[e] = false
		}
		check(op)
		// Let detection settle before the next operation.
		now += cfg.DetectDelay + time.Duration(1+rng.Intn(40))*time.Millisecond
		s.RunUntil(now)
		checkViews(op)
	}

	st := n.Stats()
	inFlight := met.InFlight()
	if inFlight < 0 || st.DataSent != st.DataDelivered+st.DataDropped()+uint64(inFlight) {
		t.Fatalf("conservation: sent %d != delivered %d + dropped %d + in flight %d",
			st.DataSent, st.DataDelivered, st.DataDropped(), inFlight)
	}
	s.Run()
	st = n.Stats()
	if met.InFlight() != 0 || st.DataSent != st.DataDelivered+st.DataDropped() {
		t.Fatalf("after drain: sent %d, delivered %d, dropped %d, in flight %d",
			st.DataSent, st.DataDelivered, st.DataDropped(), met.InFlight())
	}
	if st.DataSent == 0 {
		t.Fatal("no traffic ran")
	}
}
