package netsim

import (
	"fmt"
	"time"

	"routeconv/internal/obs"
	"routeconv/internal/sim"
)

// Protocol is a routing protocol instance attached to one node. All methods
// run synchronously inside the event loop.
type Protocol interface {
	// Start begins protocol operation (initial announcements, periodic
	// timers). Called once by Network.Start.
	Start()
	// HandleMessage delivers a routing message received from a directly
	// connected neighbor.
	HandleMessage(from NodeID, msg Message)
	// LinkDown reports that the link to neighbor has been detected failed.
	LinkDown(neighbor NodeID)
	// LinkUp reports that the link to neighbor has been detected restored.
	LinkUp(neighbor NodeID)
}

// noRoute marks an empty FIB slot. Node IDs are contiguous from 0, so the
// FIB and port table are dense slices indexed by NodeID rather than maps.
const noRoute NodeID = -1

// Node is a router: it owns a forwarding table (FIB), output ports, and
// optionally a routing protocol that maintains the FIB.
type Node struct {
	id  NodeID
	net *Network
	// rng is the node's private random stream. Protocol jitter draws from
	// it instead of the shared simulator RNG so the sequence each node
	// sees depends only on its own event order rather than on the global
	// interleaving.
	rng sim.Stream
	// ports is indexed by neighbor ID; nil entries are non-neighbors.
	ports     []*port
	neighbors []NodeID // sorted; gives protocols a deterministic iteration order
	// fib is indexed by destination ID; noRoute entries are empty.
	fib []NodeID
	// backup holds precomputed protection next hops (fast reroute), in
	// preference order: used the instant the primary is unusable, without
	// waiting for protocol convergence.
	backup map[NodeID][]NodeID
	// multi holds equal-cost multipath sets installed by ECMP-capable
	// protocols; flows hash across them.
	multi map[NodeID][]NodeID
	proto Protocol
	// failed marks a node failed by Network.FailNode.
	failed bool
}

// ID returns the node's identifier.
func (nd *Node) ID() NodeID { return nd.id }

// Sim returns the simulator driving this node's events, for protocol
// timers.
func (nd *Node) Sim() *sim.Simulator { return nd.net.sim }

// Jitter returns a duration uniform on [lo, hi] from the node's private
// random stream. Protocols must draw their timer jitter here rather than
// from Sim().Rand(): the shared RNG's sequence depends on global event
// interleaving, so any change to one node's timing would reshuffle every
// other node's draws.
func (nd *Node) Jitter(lo, hi time.Duration) time.Duration { return nd.rng.Jitter(lo, hi) }

// Metrics returns the obs counter set this node's events record into, for
// protocol-level counters. It reads through the network at call time, so
// attach order relative to Network.Instrument does not matter; nil (a
// no-op recorder) when the network is uninstrumented.
func (nd *Node) Metrics() *obs.Metrics { return nd.net.met }

// Timeline returns the convergence timeline this node's events record
// into, for protocol-level records (withdrawals, flap damping). Nil when
// uninstrumented.
func (nd *Node) Timeline() *obs.Timeline { return nd.net.tl }

// NetworkSize returns the number of nodes in the network. Node IDs are
// contiguous from 0, so protocols use it to size dense per-destination
// tables up front.
func (nd *Node) NetworkSize() int { return len(nd.net.nodes) }

// Neighbors returns the node's directly connected neighbors in ascending ID
// order. The slice is owned by the node; callers must not modify it.
func (nd *Node) Neighbors() []NodeID { return nd.neighbors }

// portTo returns the output port toward the given node, or nil when it is
// not a neighbor.
func (nd *Node) portTo(id NodeID) *port {
	if int(id) < len(nd.ports) && id >= 0 {
		return nd.ports[id]
	}
	return nil
}

// setPort installs the output port toward a new neighbor, doubling the
// table so repeated growth stays amortized.
func (nd *Node) setPort(id NodeID, p *port) {
	if int(id) >= len(nd.ports) {
		n := int(id) + 1
		if n < 2*len(nd.ports) {
			n = 2 * len(nd.ports)
		}
		grown := make([]*port, n)
		copy(grown, nd.ports)
		nd.ports = grown
	}
	nd.ports[id] = p
}

// fibGet returns the FIB entry for dst, or noRoute.
func (nd *Node) fibGet(dst NodeID) NodeID {
	if int(dst) < len(nd.fib) && dst >= 0 {
		return nd.fib[dst]
	}
	return noRoute
}

// fibSet writes the FIB entry for dst, growing the table on first sight of
// a high destination ID. The first route on any node sizes the FIB to the
// whole network (every destination gets an entry eventually), and growth
// past that doubles, so convergence on a large graph never pays a
// per-destination grow-and-copy.
func (nd *Node) fibSet(dst, nextHop NodeID) {
	if int(dst) >= len(nd.fib) {
		n := int(dst) + 1
		if n < 2*len(nd.fib) {
			n = 2 * len(nd.fib)
		}
		if full := len(nd.net.nodes); n < full {
			n = full
		}
		grown := make([]NodeID, n)
		copy(grown, nd.fib)
		for i := len(nd.fib); i < len(grown); i++ {
			grown[i] = noRoute
		}
		nd.fib = grown
	}
	nd.fib[dst] = nextHop
}

// LinkUpTo reports whether the link to the neighbor is currently up.
// It returns false for nodes that are not neighbors.
func (nd *Node) LinkUpTo(neighbor NodeID) bool {
	p := nd.portTo(neighbor)
	return p != nil && !p.link.down
}

// AttachProtocol binds a protocol instance to the node. It must be called
// before Network.Start.
func (nd *Node) AttachProtocol(p Protocol) {
	if nd.net.started {
		panic("netsim: AttachProtocol after Start")
	}
	nd.proto = p
}

// Protocol returns the attached protocol, or nil.
func (nd *Node) Protocol() Protocol { return nd.proto }

// SetRoute installs nextHop as the forwarding entry for dst. nextHop must
// be a directly connected neighbor.
func (nd *Node) SetRoute(dst, nextHop NodeID) {
	if nd.portTo(nextHop) == nil {
		panic(fmt.Sprintf("netsim: node %d: next hop %d is not a neighbor", nd.id, nextHop))
	}
	prev := nd.fibGet(dst)
	if prev == nextHop {
		return
	}
	net := nd.net
	nd.fluidDirty(dst)
	nd.fibSet(dst, nextHop)
	net.met.Inc(obs.FIBChanges)
	net.tl.FIBChange(net.sim.Now(), int(nd.id), int(dst), int(nextHop))
	net.observer.RouteChanged(net.sim.Now(), nd.id, dst, nextHop, false)
}

// fluidDirty settles fluid traffic for dst against the entry in force
// while it accrued, before the forwarding graph changes underneath it.
func (nd *Node) fluidDirty(dst NodeID) {
	if nd.net.flows != nil {
		nd.net.flows.fibChanged(nd.id, dst)
	}
}

// ClearRoute removes the forwarding entry for dst, if any.
func (nd *Node) ClearRoute(dst NodeID) {
	prev := nd.fibGet(dst)
	if prev == noRoute {
		return
	}
	net := nd.net
	nd.fluidDirty(dst)
	nd.fib[dst] = noRoute
	net.met.Inc(obs.FIBRemovals)
	net.tl.FIBRemove(net.sim.Now(), int(nd.id), int(dst))
	net.observer.RouteChanged(net.sim.Now(), nd.id, dst, 0, true)
}

// NextHop returns the current forwarding entry for dst.
func (nd *Node) NextHop(dst NodeID) (NodeID, bool) {
	nh := nd.fibGet(dst)
	return nh, nh != noRoute
}

// SetBackupRoutes installs precomputed protection next hops for dst, in
// preference order — the "alternate path always ready at the line card" of
// the paper's related work ([1] IGP fast reroute, [27] emergency exits).
// They are consulted only when the primary next hop is unusable (link
// physically down, or route withdrawn) and are not touched by routing
// protocols. The first backup whose link is up wins.
func (nd *Node) SetBackupRoutes(dst NodeID, nextHops []NodeID) {
	for _, nh := range nextHops {
		if nd.portTo(nh) == nil {
			panic(fmt.Sprintf("netsim: node %d: backup next hop %d is not a neighbor", nd.id, nh))
		}
	}
	if nd.backup == nil {
		nd.backup = make(map[NodeID][]NodeID)
	}
	nd.backup[dst] = nextHops
}

// ClearBackupRoutes removes the protection entries for dst, if any.
func (nd *Node) ClearBackupRoutes(dst NodeID) { delete(nd.backup, dst) }

// SetMultipath installs an equal-cost multipath set for dst. Flows are
// hashed across the set (per source/destination pair, so a flow's packets
// stay ordered); next hops with down links are skipped. SetRoute still
// controls the canonical single next hop used by WalkPath and convergence
// metrics. An empty or single-entry set clears multipath forwarding.
func (nd *Node) SetMultipath(dst NodeID, nextHops []NodeID) {
	for _, nh := range nextHops {
		if nd.portTo(nh) == nil {
			panic(fmt.Sprintf("netsim: node %d: multipath next hop %d is not a neighbor", nd.id, nh))
		}
	}
	if len(nextHops) >= 2 || nd.multi[dst] != nil {
		nd.fluidDirty(dst)
	}
	if len(nextHops) < 2 {
		delete(nd.multi, dst)
		return
	}
	if nd.multi == nil {
		nd.multi = make(map[NodeID][]NodeID)
	}
	nd.multi[dst] = nextHops
}

// Multipath returns the equal-cost set for dst (nil when single-path).
// The slice is owned by the node; callers must not modify it.
func (nd *Node) Multipath(dst NodeID) []NodeID { return nd.multi[dst] }

// flowHash gives a stable per-flow starting index into an ECMP set, using
// a splitmix64-style finalizer for good avalanche in the low bits.
func flowHash(src, dst NodeID, n int) int {
	h := uint64(src)<<32 ^ uint64(uint32(dst))
	h ^= h >> 30
	h *= 0xBF58_476D_1CE4_E5B9
	h ^= h >> 27
	h *= 0x94D0_49BB_1331_11EB
	h ^= h >> 31
	return int(h % uint64(n))
}

// BackupRoutes returns the protection next hops for dst in preference
// order. The slice is owned by the node; callers must not modify it.
func (nd *Node) BackupRoutes(dst NodeID) []NodeID { return nd.backup[dst] }

// SendControl transmits a routing message to a directly connected neighbor.
// The message rides the link like any packet (serialization, propagation,
// loss on a failed link) but is exempt from the data queue cap.
func (nd *Node) SendControl(to NodeID, msg Message) {
	p := nd.portTo(to)
	if p == nil {
		panic(fmt.Sprintf("netsim: node %d: SendControl to non-neighbor %d", nd.id, to))
	}
	net := nd.net
	pkt := &Packet{
		ID:      net.nextID,
		Src:     nd.id,
		Dst:     to,
		Size:    msg.SizeBytes(),
		Payload: msg,
		Created: net.sim.Now(),
	}
	net.nextID++
	net.stats.ControlSent++
	net.stats.ControlBytes += uint64(pkt.Size)
	net.met.Inc(obs.ControlSent)
	net.met.Add(obs.ControlBytes, uint64(pkt.Size))
	p.send(pkt)
}

// SendData injects a new data packet addressed to dst and forwards it
// according to the node's FIB.
func (nd *Node) SendData(dst NodeID, size, ttl int) {
	net := nd.net
	pkt := &Packet{
		ID:      net.nextID,
		Src:     nd.id,
		Dst:     dst,
		TTL:     ttl,
		Size:    size,
		Created: net.sim.Now(),
	}
	net.nextID++
	net.stats.DataSent++
	net.met.Inc(obs.PacketsSent)
	net.met.PacketIn()
	if net.cfg.RecordHops {
		pkt.Trace = append(pkt.Trace, nd.id)
	}
	nd.forward(pkt)
}

// receive handles a packet arriving from a neighbor.
func (nd *Node) receive(from NodeID, pkt *Packet) {
	net := nd.net
	if pkt.Control() {
		net.met.Inc(obs.ControlReceived)
		if nd.proto != nil {
			nd.proto.HandleMessage(from, pkt.Payload)
		}
		releasePooled(pkt)
		return
	}
	pkt.HopCount++
	if net.cfg.RecordHops {
		pkt.Trace = append(pkt.Trace, nd.id)
	}
	if pkt.Dst == nd.id {
		net.stats.DataDelivered++
		net.met.Inc(obs.PacketsDelivered)
		net.met.PacketOut()
		net.observer.PacketDelivered(net.sim.Now(), pkt)
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		net.drop(nd.id, pkt, DropTTLExpired)
		return
	}
	nd.forward(pkt)
}

// forward looks up the FIB and queues the packet on the corresponding
// output port. When the primary is unusable — its link is physically down,
// or the control plane has withdrawn the route entirely — and a protection
// entry exists, the packet deflects to the backup immediately (fast
// reroute: the backup lives below the routing table, like a line-card
// protection entry).
func (nd *Node) forward(pkt *Packet) {
	var p *port
	if nd.multi != nil {
		if set := nd.multi[pkt.Dst]; len(set) > 1 {
			// ECMP: start at the flow's hash slot and take the first next hop
			// whose link is up.
			start := flowHash(pkt.Src, pkt.Dst, len(set))
			for i := range set {
				if mp := nd.portTo(set[(start+i)%len(set)]); mp != nil && !mp.link.down {
					p = mp
					break
				}
			}
		}
	}
	if p == nil {
		if nh := nd.fibGet(pkt.Dst); nh != noRoute {
			p = nd.ports[nh]
		}
	}
	if p == nil || p.link.down {
		if nd.backup != nil {
			for _, alt := range nd.backup[pkt.Dst] {
				if ap := nd.portTo(alt); ap != nil && !ap.link.down {
					p = ap
					break
				}
			}
		}
	}
	if p == nil {
		nd.net.drop(nd.id, pkt, DropNoRoute)
		return
	}
	nd.net.met.Inc(obs.PacketsForwarded)
	p.send(pkt)
}

// CBR generates constant-bit-rate data traffic from one node to a fixed
// destination: the paper's single sender workload (§5).
type CBR struct {
	node     *Node
	dst      NodeID
	interval time.Duration
	size     int
	ttl      int
	stopAt   time.Duration
	event    sim.Event
}

var _ sim.Handler = (*CBR)(nil)

// StartCBR begins sending size-byte packets with the given TTL from node to
// dst every interval, from virtual time start until stop (exclusive).
func StartCBR(node *Node, dst NodeID, interval time.Duration, size, ttl int, start, stop time.Duration) *CBR {
	if interval <= 0 {
		panic("netsim: CBR interval must be positive")
	}
	c := &CBR{node: node, dst: dst, interval: interval, size: size, ttl: ttl, stopAt: stop}
	c.event = node.Sim().ScheduleHandlerAt(start, c, 0, nil)
	return c
}

// Stop halts the source.
func (c *CBR) Stop() {
	c.event.Cancel()
	c.event = sim.Event{}
}

// HandleEvent implements sim.Handler: one tick sends one packet and
// schedules the next, allocation-free.
func (c *CBR) HandleEvent(int32, any) {
	now := c.node.Sim().Now()
	if now >= c.stopAt {
		c.event = sim.Event{}
		return
	}
	c.node.SendData(c.dst, c.size, c.ttl)
	c.event = c.node.Sim().ScheduleHandler(c.interval, c, 0, nil)
}
