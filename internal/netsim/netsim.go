package netsim

import (
	"fmt"
	"sort"
	"time"

	"routeconv/internal/obs"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// Config sets the physical parameters of every link in the network,
// matching the paper's §5 simulation setup.
type Config struct {
	// LinkRateBps is the transmission rate in bits per second.
	LinkRateBps int64
	// LinkDelay is the propagation delay.
	LinkDelay time.Duration
	// DetectDelay is how long after a link fails (or recovers) the attached
	// nodes' routing protocols are notified.
	DetectDelay time.Duration
	// QueueLimit is the maximum number of data packets queued per output
	// port, excluding the one in transmission. Control packets are exempt
	// (see DESIGN.md).
	QueueLimit int
	// RecordHops makes every packet record the nodes it visits, for loop
	// analysis. It costs memory; leave it off for bulk trials.
	RecordHops bool
}

// DefaultConfig returns the paper's link parameters: 10 Mbps, 1 ms
// propagation delay, 50 ms failure detection, 20-packet queues.
func DefaultConfig() Config {
	return Config{
		LinkRateBps: 10_000_000,
		LinkDelay:   time.Millisecond,
		DetectDelay: 50 * time.Millisecond,
		QueueLimit:  20,
	}
}

// Stats are the network-wide packet counters for one simulation.
type Stats struct {
	// DataSent counts data packets injected by traffic sources.
	DataSent uint64
	// DataDelivered counts data packets that reached their destination.
	DataDelivered uint64
	// ControlSent counts routing messages sent.
	ControlSent uint64
	// ControlBytes counts routing message bytes sent.
	ControlBytes uint64
	// DataDrops and ControlDrops count lost packets by cause.
	DataDrops    [numDropReasons]uint64
	ControlDrops [numDropReasons]uint64
}

// Dropped returns the number of data packets lost for the given reason.
func (s Stats) Dropped(r DropReason) uint64 { return s.DataDrops[r] }

// DataDropped returns the total data packets lost for any reason.
func (s Stats) DataDropped() uint64 {
	var total uint64
	for _, n := range s.DataDrops {
		total += n
	}
	return total
}

// serCacheMax bounds the memoized serialization table; packets larger than
// this (none in the study — jumbo frames end at 9 KB) compute directly.
const serCacheMax = 1 << 16

// Network is a set of nodes and links driven by a Simulator. Build one
// with New or FromGraph, attach protocols, then Start it.
type Network struct {
	sim      *sim.Simulator
	cfg      Config
	nodes    []*Node
	links    map[topology.Edge]*Link
	linkList []*Link // sorted by edge; nil when invalidated by Connect
	observer Observer
	stats    Stats
	// met and tl are the optional obs instrumentation; both are nil-safe
	// no-ops when the network is not Instrumented.
	met     *obs.Metrics
	tl      *obs.Timeline
	started bool
	// walkSeen/walkEpoch are WalkPath's loop-detection scratch; the epoch
	// makes reuse O(1) instead of clearing per walk.
	walkSeen  []uint32
	walkEpoch uint32
	// flows is the optional fluid/hybrid traffic engine (see fluid.go);
	// nil when every flow is packet-simulated.
	flows *FlowSet
	// nextID is the packet ID sequence.
	nextID uint64
	// serCache memoizes serialization delay per packet size.
	serCache []time.Duration
}

// New returns an empty network using the given engine and link parameters.
// A nil observer is replaced with NopObserver.
func New(s *sim.Simulator, cfg Config, o Observer) *Network {
	if cfg.LinkRateBps <= 0 {
		panic("netsim: LinkRateBps must be positive")
	}
	if o == nil {
		o = NopObserver{}
	}
	return &Network{sim: s, cfg: cfg, links: make(map[topology.Edge]*Link), observer: o}
}

// FromGraph returns a network with one node per graph node and one link per
// graph edge. Node port tables, neighbor lists, and the link map are
// presized from the graph's degrees, so building a 100k-node network does
// not pay for repeated regrowth.
func FromGraph(s *sim.Simulator, g *topology.Graph, cfg Config, o Observer) *Network {
	n := New(s, cfg, o)
	edges := g.Edges()
	n.nodes = make([]*Node, 0, g.Len())
	n.links = make(map[topology.Edge]*Link, len(edges))
	for i := 0; i < g.Len(); i++ {
		node := n.AddNode()
		nbrs := g.Neighbors(topology.NodeID(i))
		if len(nbrs) == 0 {
			continue
		}
		maxNbr := nbrs[0]
		for _, v := range nbrs[1:] {
			if v > maxNbr {
				maxNbr = v
			}
		}
		node.ports = make([]*port, int(maxNbr)+1)
		node.neighbors = make([]NodeID, 0, len(nbrs))
	}
	for _, e := range edges {
		n.Connect(e.A, e.B)
	}
	return n
}

// Sim returns the driving simulator.
func (n *Network) Sim() *sim.Simulator { return n.sim }

// Instrument attaches an obs metrics set and/or convergence timeline to the
// network. Either may be nil; instrumentation is strictly passive (no
// events scheduled, no randomness consumed), so attaching it never changes
// simulation outcomes. Call before Start.
func (n *Network) Instrument(m *obs.Metrics, tl *obs.Timeline) {
	n.met = m
	n.tl = tl
}

// Metrics returns the attached obs counter set (nil when uninstrumented).
func (n *Network) Metrics() *obs.Metrics { return n.met }

// Timeline returns the attached convergence timeline (nil when
// uninstrumented).
func (n *Network) Timeline() *obs.Timeline { return n.tl }

// Stats returns the network-wide counters accumulated so far.
func (n *Network) Stats() Stats { return n.stats }

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.nodes) }

// AddNode creates a new node and returns it.
func (n *Network) AddNode() *Node {
	node := &Node{
		id:  NodeID(len(n.nodes)),
		net: n,
	}
	node.rng = sim.NewStream(n.sim.Seed(), uint64(node.id))
	n.nodes = append(n.nodes, node)
	return node
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Connect creates a duplex link between a and b with the network's link
// parameters. Connecting an existing pair panics (a model bug).
func (n *Network) Connect(a, b NodeID) *Link {
	e := topology.NewEdge(a, b)
	if _, dup := n.links[e]; dup {
		panic(fmt.Sprintf("netsim: duplicate link %d-%d", a, b))
	}
	na, nb := n.nodes[a], n.nodes[b]
	l := &Link{net: n, edge: e}
	l.dir[0] = &port{owner: na, peer: nb, link: l}
	l.dir[1] = &port{owner: nb, peer: na, link: l}
	na.setPort(b, l.dir[0])
	nb.setPort(a, l.dir[1])
	na.neighbors = insertSorted(na.neighbors, b)
	nb.neighbors = insertSorted(nb.neighbors, a)
	n.links[e] = l
	n.linkList = nil
	return l
}

// Link returns the link between a and b, or nil when none exists.
func (n *Network) Link(a, b NodeID) *Link { return n.links[topology.NewEdge(a, b)] }

// Links returns all links sorted by edge. The result is cached between
// topology changes; callers must not modify it.
func (n *Network) Links() []*Link {
	if n.linkList != nil {
		return n.linkList
	}
	edges := make([]topology.Edge, 0, len(n.links))
	for e := range n.links {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	out := make([]*Link, len(edges))
	for i, e := range edges {
		out[i] = n.links[e]
	}
	n.linkList = out
	return out
}

// Start invokes every attached protocol's Start in node-ID order. It must
// be called exactly once, after all nodes, links, and protocols are in
// place.
func (n *Network) Start() {
	if n.started {
		panic("netsim: Start called twice")
	}
	n.started = true
	for _, node := range n.nodes {
		if node.proto != nil {
			node.proto.Start()
		}
	}
}

// FailLink fails the a-b link in its own right. If that takes the link
// down, packets in flight or subsequently transmitted onto it are lost and
// after DetectDelay both ends' protocols receive LinkDown. Failing a link
// whose endpoint is already down only records the failure: the link then
// stays down when the endpoint recovers.
func (n *Network) FailLink(a, b NodeID) {
	l := n.mustLink("FailLink", a, b)
	l.failed = true
	n.relink(l, a, b)
}

// RestoreLink clears the a-b link's own failure. The link comes back up —
// and after DetectDelay both ends' protocols receive LinkUp — unless an
// endpoint is still failed, in which case it comes up when that node
// recovers.
func (n *Network) RestoreLink(a, b NodeID) {
	l := n.mustLink("RestoreLink", a, b)
	l.failed = false
	n.relink(l, a, b)
}

// FailNode fails the node: every incident link that is up goes down (with
// the usual detection delay at both ends). The node's protocol keeps
// running but is isolated — a simplification documented in SCENARIOS.md.
// FailNode on an already-failed node is a no-op. It returns the number of
// links the failure took down.
func (n *Network) FailNode(id NodeID) int {
	node := n.nodes[id]
	if node.failed {
		return 0
	}
	node.failed = true
	took := 0
	for _, nb := range node.neighbors {
		if n.relink(node.portTo(nb).link, id, nb) {
			took++
		}
	}
	n.tl.Node(n.sim.Now(), obs.KindNodeDown, int(id))
	return took
}

// RecoverNode recovers a failed node: every incident link comes back up
// unless it is failed in its own right or its other endpoint is still
// failed. A no-op for nodes not failed by FailNode.
func (n *Network) RecoverNode(id NodeID) {
	node := n.nodes[id]
	if !node.failed {
		return
	}
	node.failed = false
	for _, nb := range node.neighbors {
		l := node.portTo(nb).link
		n.relink(l, l.edge.A, l.edge.B)
	}
	n.tl.Node(n.sim.Now(), obs.KindNodeUp, int(id))
}

// mustLink returns the a-b link, panicking (a model bug) when none exists.
func (n *Network) mustLink(op string, a, b NodeID) *Link {
	l := n.links[topology.NewEdge(a, b)]
	if l == nil {
		panic(fmt.Sprintf("netsim: %s(%d,%d): no such link", op, a, b))
	}
	return l
}

// relink derives l's liveness from its inputs — a link is up iff it is not
// failed in its own right and neither endpoint is failed — and applies the
// transition if the derived state changed, reporting whether it did. a
// and b orient the timeline record.
func (n *Network) relink(l *Link, a, b NodeID) bool {
	down := l.failed || l.dir[0].owner.failed || l.dir[1].owner.failed
	if down == l.down {
		return false
	}
	if n.flows != nil {
		// Settle fluid traffic against the graph that carried it before
		// the link state flips (and demote crossing flows in hybrid mode).
		n.flows.linkChanged(a, b)
	}
	l.down = down
	if down {
		n.tl.Link(n.sim.Now(), obs.KindLinkDown, int(a), int(b))
		n.sim.Schedule(n.cfg.DetectDelay, func() {
			if !l.down || l.detectedDown {
				return // recovered before detection, or already detected
			}
			l.detectedDown = true
			n.tl.Link(n.sim.Now(), obs.KindLinkDownDetected, int(a), int(b))
			n.notifyLink(l, false)
		})
	} else {
		n.tl.Link(n.sim.Now(), obs.KindLinkUp, int(a), int(b))
		n.sim.Schedule(n.cfg.DetectDelay, func() {
			if l.down || !l.detectedDown {
				return // failed again before detection, or failure never detected
			}
			l.detectedDown = false
			n.tl.Link(n.sim.Now(), obs.KindLinkUpDetected, int(a), int(b))
			n.notifyLink(l, true)
		})
	}
	return true
}

// lossSalt decorrelates the per-port packet-loss streams from the per-node
// jitter and per-source traffic streams sharing the simulator seed.
const lossSalt = 0x6c6f7373796c6e6b // "lossylnk"

// SetLinkLoss sets the a-b link's random packet-loss probability: every
// packet completing serialization in either direction is dropped with
// probability p, control and data traffic alike. p = 0 clears the setting.
// Each direction draws from its own per-port sim.Stream (seeded by the
// simulator seed and the directed port identity), so loss decisions depend
// only on that port's own transmission order, never on how other events
// interleave.
func (n *Network) SetLinkLoss(a, b NodeID, p float64) {
	l := n.mustLink("SetLinkLoss", a, b)
	for _, pt := range l.dir {
		pt.lossP = p
		if p > 0 && !pt.lossSeeded {
			pt.lossSeeded = true
			pt.lossRng = sim.NewStream(n.sim.Seed()^lossSalt,
				uint64(uint32(pt.owner.id))<<32|uint64(uint32(pt.peer.id)))
		}
	}
	n.tl.LinkLoss(n.sim.Now(), int(a), int(b), p)
}

// CostOutLink gracefully removes the a-b link from service: both ends'
// protocols are notified immediately (maintenance is announced, so there is
// no detection delay) while the link stays physically up — in-flight and
// queued packets still deliver. A no-op if the link is already down or
// costed out.
func (n *Network) CostOutLink(a, b NodeID) {
	l := n.mustLink("CostOutLink", a, b)
	if l.down || l.detectedDown {
		return
	}
	l.detectedDown = true
	n.tl.Link(n.sim.Now(), obs.KindCostOut, int(a), int(b))
	n.notifyLink(l, false)
}

// CostInLink returns a costed-out a-b link to service, notifying both ends'
// protocols immediately. A no-op unless the link is up but costed out.
// (A physical failure and repair cycle clears a cost-out: the repair's
// detection restores the protocols' view.)
func (n *Network) CostInLink(a, b NodeID) {
	l := n.mustLink("CostInLink", a, b)
	if l.down || !l.detectedDown {
		return
	}
	l.detectedDown = false
	n.tl.Link(n.sim.Now(), obs.KindCostIn, int(a), int(b))
	n.notifyLink(l, true)
}

func (n *Network) notifyLink(l *Link, up bool) {
	for _, p := range l.dir {
		if proto := p.owner.proto; proto != nil {
			if up {
				proto.LinkUp(p.peer.id)
			} else {
				proto.LinkDown(p.peer.id)
			}
		}
	}
}

// WalkPath follows forwarding tables from src toward dst and returns the
// nodes visited, starting with src. ok is true only when the walk reaches
// dst without encountering a missing route, a loop, or a down link.
func (n *Network) WalkPath(src, dst NodeID) (path []NodeID, ok bool) {
	if len(n.walkSeen) < len(n.nodes) {
		n.walkSeen = make([]uint32, len(n.nodes))
		n.walkEpoch = 0
	}
	n.walkEpoch++
	if n.walkEpoch == 0 { // epoch wrapped: restart from a clean slate
		clear(n.walkSeen)
		n.walkEpoch = 1
	}
	epoch := n.walkEpoch
	cur := src
	for {
		path = append(path, cur)
		if cur == dst {
			return path, true
		}
		if n.walkSeen[cur] == epoch {
			return path, false // loop
		}
		n.walkSeen[cur] = epoch
		node := n.nodes[cur]
		nh := node.fibGet(dst)
		if nh == noRoute {
			return path, false
		}
		p := node.portTo(nh)
		if p == nil || p.link.down {
			return path, false
		}
		cur = nh
	}
}

// serialization returns the time to clock size bytes onto a link,
// memoized per size.
func (n *Network) serialization(size int) time.Duration {
	if size >= 0 && size < len(n.serCache) {
		if d := n.serCache[size]; d != 0 {
			return d
		}
	}
	d := time.Duration(int64(size) * 8 * int64(time.Second) / n.cfg.LinkRateBps)
	if size >= 0 && size < serCacheMax {
		if size >= len(n.serCache) {
			grown := make([]time.Duration, size+1)
			copy(grown, n.serCache)
			n.serCache = grown
		}
		n.serCache[size] = d
	}
	return d
}

// dropCounter maps a DropReason to its obs data-drop counter (reasons
// start at 1; index 0 is unused).
var dropCounter = [numDropReasons]obs.Counter{
	DropNoRoute:       obs.DropNoRoute,
	DropTTLExpired:    obs.DropTTLExpired,
	DropQueueOverflow: obs.DropQueueOverflow,
	DropLinkFailure:   obs.DropLinkFailure,
	DropRandomLoss:    obs.DropRandomLoss,
}

// drop accounts a lost packet at node where and notifies the observer.
func (n *Network) drop(where NodeID, pkt *Packet, reason DropReason) {
	if pkt.Control() {
		n.stats.ControlDrops[reason]++
		n.met.Inc(obs.ControlDropped)
	} else {
		n.stats.DataDrops[reason]++
		n.met.Inc(dropCounter[reason])
		n.met.PacketOut()
	}
	n.observer.PacketDropped(n.sim.Now(), where, pkt, reason)
	releasePooled(pkt)
}

// releasePooled returns a packet's pooled payload, if any, to its owner's
// free list.
func releasePooled(pkt *Packet) {
	if pm, ok := pkt.Payload.(PooledMessage); ok {
		pm.Release()
	}
}

func insertSorted(s []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Link is a duplex link between two nodes: two independent directional
// transmitters sharing one up/down state.
type Link struct {
	net  *Network
	edge topology.Edge
	dir  [2]*port
	// failed is the link's own failure (FailLink); down is derived from it
	// and the endpoints' failures by Network.relink.
	failed bool
	down   bool
	// detectedDown tracks whether the attached protocols currently believe
	// the link is down, so that flaps shorter than the detection window
	// produce no notifications at all.
	detectedDown bool
}

// Edge returns the canonical node pair the link connects.
func (l *Link) Edge() topology.Edge { return l.edge }

// Up reports whether the link is currently up.
func (l *Link) Up() bool { return !l.down }

// PortCounters are per-direction link transmission counters.
type PortCounters struct {
	// TxPackets and TxBytes count everything clocked onto the wire,
	// including packets later lost to the link failing mid-flight.
	TxPackets, TxBytes uint64
	// QueueDrops counts data packets rejected by the full output queue.
	QueueDrops uint64
}

// Counters returns the transmission counters for the direction from the
// given node. It returns the zero value if from is not an endpoint.
func (l *Link) Counters(from NodeID) PortCounters {
	for _, p := range l.dir {
		if p.owner.id == from {
			return p.counters
		}
	}
	return PortCounters{}
}

// Typed port event kinds: the wire is modeled with two pooled events per
// transmission instead of two heap-allocated closures.
const (
	// portSerDone: the last bit left the transmitter.
	portSerDone int32 = iota
	// portPropDone: the last bit arrived at the far end.
	portPropDone
)

// port is one direction of a link: the transmitter owned by owner sending
// toward peer. Its output queue is a power-of-two ring buffer.
type port struct {
	owner    *Node
	peer     *Node
	link     *Link
	queue    []*Packet // ring; len is 0 or a power of two
	head     int       // index of the oldest queued packet
	count    int       // packets in the ring
	inQ      int       // data packets in the ring
	busy     bool
	counters PortCounters
	// lossP, when positive, drops each packet completing serialization
	// with that probability (scenario lossy links, SetLinkLoss). lossRng
	// is this direction's private stream, seeded on first use so
	// loss-free runs never pay for it.
	lossP      float64
	lossRng    sim.Stream
	lossSeeded bool
}

var _ sim.Handler = (*port)(nil)

// send enqueues a packet for transmission, dropping data packets when the
// data queue is full. Control packets are exempt from the cap (reliable
// transport stand-in, see DESIGN.md).
func (p *port) send(pkt *Packet) {
	if p.busy {
		net := p.owner.net
		if !pkt.Control() && p.inQ >= net.cfg.QueueLimit {
			p.counters.QueueDrops++
			net.drop(p.owner.id, pkt, DropQueueOverflow)
			return
		}
		p.push(pkt)
		if !pkt.Control() {
			p.inQ++
			net.met.ObserveQueueDepth(p.inQ)
		}
		return
	}
	p.transmit(pkt)
}

// transmit clocks the packet onto the wire. If the link is (or goes) down
// before the packet would arrive, the packet is lost.
func (p *port) transmit(pkt *Packet) {
	p.busy = true
	p.counters.TxPackets++
	p.counters.TxBytes += uint64(pkt.Size)
	net := p.owner.net
	net.sim.ScheduleHandler(net.serialization(pkt.Size), p, portSerDone, pkt)
}

// HandleEvent implements sim.Handler: the serialization-done and
// propagation-done phases of one packet's flight.
func (p *port) HandleEvent(kind int32, data any) {
	pkt := data.(*Packet)
	net := p.owner.net
	switch kind {
	case portSerDone:
		p.busy = false
		if p.count > 0 {
			next := p.pop()
			if !next.Control() {
				p.inQ--
			}
			p.transmit(next)
		}
		if p.link.down {
			net.drop(p.owner.id, pkt, DropLinkFailure)
			return
		}
		if p.lossP > 0 && p.lossRng.Float64() < p.lossP {
			net.drop(p.owner.id, pkt, DropRandomLoss)
			return
		}
		net.sim.ScheduleHandler(net.cfg.LinkDelay, p, portPropDone, pkt)
	case portPropDone:
		if p.link.down {
			net.drop(p.owner.id, pkt, DropLinkFailure)
			return
		}
		p.peer.receive(p.owner.id, pkt)
	}
}

// push appends to the ring, growing it when full.
func (p *port) push(pkt *Packet) {
	if p.count == len(p.queue) {
		size := 2 * len(p.queue)
		if size == 0 {
			size = 8
		}
		grown := make([]*Packet, size)
		for i := 0; i < p.count; i++ {
			grown[i] = p.queue[(p.head+i)&(len(p.queue)-1)]
		}
		p.queue = grown
		p.head = 0
	}
	p.queue[(p.head+p.count)&(len(p.queue)-1)] = pkt
	p.count++
}

// pop removes and returns the oldest queued packet.
func (p *port) pop() *Packet {
	pkt := p.queue[p.head]
	p.queue[p.head] = nil
	p.head = (p.head + 1) & (len(p.queue) - 1)
	p.count--
	return pkt
}
