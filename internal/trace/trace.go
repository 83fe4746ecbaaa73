// Package trace collects routing and forwarding events during a simulation
// and derives the paper's convergence metrics: the network routing
// convergence time (last routing table change anywhere, §5.4) and the
// forwarding path convergence delay (last change of the sender→receiver
// forwarding walk), plus the transient-path and delivery/drop records that
// Figures 3–7 are computed from.
package trace

import (
	"time"

	"routeconv/internal/netsim"
)

// RouteChange is one forwarding-table modification.
type RouteChange struct {
	At      time.Duration
	Node    netsim.NodeID
	Dst     netsim.NodeID
	NextHop netsim.NodeID
	Removed bool
}

// PathSample is the sender→receiver forwarding walk observed at one
// instant. Path holds the nodes visited; OK is false when the walk hit a
// missing route, a loop, or a down link.
type PathSample struct {
	At   time.Duration
	Path []netsim.NodeID
	OK   bool
}

// Delivery records one data packet arriving at its destination.
type Delivery struct {
	At    time.Duration
	Delay time.Duration
	Hops  int
	// Looped reports whether the packet's trace revisited a node before
	// delivery (an escaped transient loop, §5.5). Only meaningful when the
	// network records hops.
	Looped bool
}

// Drop records one lost packet.
type Drop struct {
	At     time.Duration
	Where  netsim.NodeID
	Reason netsim.DropReason
	// Control marks routing messages (excluded from data-loss metrics).
	Control bool
}

// Collector is a netsim.Observer that records everything needed to compute
// the study's metrics for one (sender, receiver) flow. Create it, pass it
// to netsim as the observer, then call SetNetwork before the simulation
// starts.
//
// Recording is instant-granular: records raised at one simulation instant
// are buffered until the instant ends, then committed in a canonical
// order (and the forwarding walk sampled once, at the instant's final
// state). Same-instant events carry no defined order — the engine orders
// them by scheduling accident — so canonical commit order is what keeps
// trial output independent of that accident. Call Flush after the run to
// commit the tail.
type Collector struct {
	net      *netsim.Network
	src, dst netsim.NodeID

	// compact drops the per-event RouteChanges record, keeping only the
	// count and the time of the last change (see SetCompact).
	compact         bool
	routeChangeN    int
	lastRouteChange time.Duration

	// Pending-instant state: route changes (and the walk they imply) at
	// rcAt, drops at dropAt, committed when a later instant begins.
	rcAt     time.Duration
	rcOpen   bool
	pendRC   []RouteChange
	pendPath []netsim.NodeID
	pendOK   bool
	pendWalk bool
	dropAt   time.Duration
	dropOpen bool
	pendDrop []Drop
	// shadow mirrors every forwarding entry as of the last committed
	// instant ((node, dst) → next hop, absent = no route), so commits can
	// reduce an instant's churn to its net effect. lastIdx is flush
	// scratch. Full-record mode only.
	shadow  map[uint64]netsim.NodeID
	lastIdx map[uint64]int

	RouteChanges []RouteChange
	PathHistory  []PathSample
	Deliveries   []Delivery
	Drops        []Drop
}

var _ netsim.Observer = (*Collector)(nil)

// NewCollector returns a collector for the flow src→dst.
func NewCollector(src, dst netsim.NodeID) *Collector {
	return &Collector{src: src, dst: dst}
}

// SetCompact, called before the simulation starts, stops the collector from
// recording individual RouteChanges; only their count and the time of the
// last one are kept, which is all RoutingConvergence needs. A converging
// 10k-node network generates ~10⁸ route changes — gigabytes of records —
// so bulk trial runs (core.Run) use compact mode, while tracing keeps the
// full record. Path sampling, deliveries and drops are unaffected.
func (c *Collector) SetCompact(on bool) { c.compact = on }

// NumRouteChanges returns the number of route changes observed, in either
// mode.
func (c *Collector) NumRouteChanges() int { return c.routeChangeN }

// SetNetwork binds the collector to the network it observes. Required
// before any event fires, because path sampling walks the network's
// forwarding tables.
func (c *Collector) SetNetwork(n *netsim.Network) { c.net = n }

// Flow returns the observed sender and receiver.
func (c *Collector) Flow() (src, dst netsim.NodeID) { return c.src, c.dst }

// RouteChanged implements netsim.Observer.
func (c *Collector) RouteChanged(at time.Duration, node, dst, nextHop netsim.NodeID, removed bool) {
	if c.rcOpen && at != c.rcAt {
		c.flushRouteInstant()
	}
	c.rcOpen = true
	c.rcAt = at
	c.routeChangeN++
	c.lastRouteChange = at
	if !c.compact {
		c.pendRC = append(c.pendRC, RouteChange{At: at, Node: node, Dst: dst, NextHop: nextHop, Removed: removed})
	}
	if dst == c.dst && c.net != nil {
		// Walk now — the forwarding tables hold this instant's state — but
		// commit only the instant's last walk. The walk reads nothing but
		// each node's entry for c.dst, and same-instant writes to one
		// (node, dst) entry keep their order, so the instant's final walk
		// is independent of how same-instant changes interleaved.
		path, ok := c.net.WalkPath(c.src, c.dst)
		c.pendPath = append(c.pendPath[:0], path...)
		c.pendOK = ok
		c.pendWalk = true
	}
}

// flushRouteInstant commits the pending route-change instant: the
// instant's net effect per forwarding entry is appended in canonical
// order, and the instant's final forwarding walk becomes a path sample
// (if it differs from the last one recorded).
//
// Net-effect reduction — keeping only entries whose end-of-instant value
// differs from their start-of-instant value — is what makes the record
// engine-invariant: same-instant protocol work (e.g. a link-state node
// recomputing once per simultaneous LSA arrival) passes through
// order-dependent intermediate states, but its final state depends only
// on what arrived, not the arrival order.
func (c *Collector) flushRouteInstant() {
	c.rcOpen = false
	if len(c.pendRC) > 0 {
		c.commitRouteInstant()
	}
	if c.pendWalk {
		c.pendWalk = false
		c.commitSample(c.rcAt, c.pendPath, c.pendOK)
	}
}

// noEntry is the shadow-table sentinel for "no route" (forwarding entries
// are never negative).
const noEntry netsim.NodeID = -1

func (c *Collector) commitRouteInstant() {
	if c.shadow == nil {
		c.shadow = make(map[uint64]netsim.NodeID)
		c.lastIdx = make(map[uint64]int)
	}
	for i, rc := range c.pendRC {
		c.lastIdx[uint64(uint32(rc.Node))<<32|uint64(uint32(rc.Dst))] = i
	}
	start := len(c.RouteChanges)
	for i, rc := range c.pendRC {
		key := uint64(uint32(rc.Node))<<32 | uint64(uint32(rc.Dst))
		if c.lastIdx[key] != i {
			continue // a later same-instant write to this entry wins
		}
		delete(c.lastIdx, key)
		val := rc.NextHop
		if rc.Removed {
			val = noEntry
		}
		old, ok := c.shadow[key]
		if !ok {
			old = noEntry
		}
		if val == old {
			continue // net-zero churn within the instant
		}
		c.shadow[key] = val
		c.RouteChanges = append(c.RouteChanges, rc)
	}
	sortRouteChanges(c.RouteChanges[start:])
	c.pendRC = c.pendRC[:0]
}

// sortRouteChanges orders one instant's records by content (node, then
// destination, next hop, removal flag) with an insertion sort — groups are
// tiny and the hot path must not allocate.
func sortRouteChanges(rcs []RouteChange) {
	for i := 1; i < len(rcs); i++ {
		for j := i; j > 0 && routeChangeLess(&rcs[j], &rcs[j-1]); j-- {
			rcs[j], rcs[j-1] = rcs[j-1], rcs[j]
		}
	}
}

func routeChangeLess(a, b *RouteChange) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.NextHop != b.NextHop {
		return a.NextHop < b.NextHop
	}
	return !a.Removed && b.Removed
}

// PacketDelivered implements netsim.Observer.
func (c *Collector) PacketDelivered(at time.Duration, pkt *netsim.Packet) {
	if pkt.Dst != c.dst {
		return
	}
	c.Deliveries = append(c.Deliveries, Delivery{
		At:     at,
		Delay:  at - pkt.Created,
		Hops:   pkt.HopCount,
		Looped: Looped(pkt),
	})
}

// LoopEscapes counts deliveries at or after t whose packets had crossed a
// forwarding loop. It requires the network to record hops.
func (c *Collector) LoopEscapes(t time.Duration) int {
	n := 0
	for _, d := range c.Deliveries {
		if d.At >= t && d.Looped {
			n++
		}
	}
	return n
}

// PacketDropped implements netsim.Observer. Data drops are recorded only
// for this collector's flow, so that multi-flow runs with one collector per
// flow do not double-count; control drops are always recorded.
func (c *Collector) PacketDropped(at time.Duration, where netsim.NodeID, pkt *netsim.Packet, reason netsim.DropReason) {
	if !pkt.Control() && pkt.Dst != c.dst {
		return
	}
	if c.dropOpen && at != c.dropAt {
		c.flushDropInstant()
	}
	c.dropOpen = true
	c.dropAt = at
	c.pendDrop = append(c.pendDrop, Drop{At: at, Where: where, Reason: reason, Control: pkt.Control()})
}

// flushDropInstant commits the pending drop instant in canonical order.
func (c *Collector) flushDropInstant() {
	c.dropOpen = false
	for i := 1; i < len(c.pendDrop); i++ {
		for j := i; j > 0 && dropLess(&c.pendDrop[j], &c.pendDrop[j-1]); j-- {
			c.pendDrop[j], c.pendDrop[j-1] = c.pendDrop[j-1], c.pendDrop[j]
		}
	}
	c.Drops = append(c.Drops, c.pendDrop...)
	c.pendDrop = c.pendDrop[:0]
}

func dropLess(a, b *Drop) bool {
	if a.Where != b.Where {
		return a.Where < b.Where
	}
	if a.Reason != b.Reason {
		return a.Reason < b.Reason
	}
	return !a.Control && b.Control
}

// Flush commits any pending instant's records. Call once after the
// simulation ends, before reading the record slices or derived metrics.
func (c *Collector) Flush() {
	if c.rcOpen {
		c.flushRouteInstant()
	}
	if c.dropOpen {
		c.flushDropInstant()
	}
}

// SamplePath records the current sender→receiver forwarding walk if it
// differs from the last recorded one. Call it manually at moments the walk
// can change without a route-change event (e.g. at failure injection).
// Pending instants are flushed first so the record stays in time order.
func (c *Collector) SamplePath() {
	if c.net == nil {
		return
	}
	c.Flush()
	path, ok := c.net.WalkPath(c.src, c.dst)
	c.commitSample(c.net.Sim().Now(), path, ok)
}

// commitSample appends the walk as a path sample at time at, unless it
// matches the last recorded sample.
func (c *Collector) commitSample(at time.Duration, path []netsim.NodeID, ok bool) {
	if last := c.lastSample(); last != nil && last.OK == ok && pathEqual(last.Path, path) {
		return
	}
	cp := make([]netsim.NodeID, len(path))
	copy(cp, path)
	c.PathHistory = append(c.PathHistory, PathSample{At: at, Path: cp, OK: ok})
}

func (c *Collector) lastSample() *PathSample {
	if len(c.PathHistory) == 0 {
		return nil
	}
	return &c.PathHistory[len(c.PathHistory)-1]
}

// RoutingConvergence returns the network routing convergence time after a
// failure at failAt: the time from failAt to the last routing table change
// anywhere in the network. It returns 0 when nothing changed after failAt.
func (c *Collector) RoutingConvergence(failAt time.Duration) time.Duration {
	// Simulation time is monotone, so the overall last change is after
	// failAt exactly when it is the last change ≥ failAt. The raw counter
	// is used in full-record mode too: the RouteChanges slice holds each
	// instant's net effect, which may omit the final (net-zero) churn.
	if c.lastRouteChange >= failAt && c.lastRouteChange > 0 {
		return c.lastRouteChange - failAt
	}
	return 0
}

// ForwardingConvergence returns the forwarding path convergence delay after
// a failure at failAt: the time from failAt until the sender→receiver walk
// last changed. It returns 0 when the walk never changed after failAt.
func (c *Collector) ForwardingConvergence(failAt time.Duration) time.Duration {
	var last time.Duration
	for _, ps := range c.PathHistory {
		if ps.At >= failAt && ps.At > last {
			last = ps.At
		}
	}
	if last == 0 {
		return 0
	}
	return last - failAt
}

// TransientPaths returns the number of distinct forwarding walks observed
// in (failAt, ∞), i.e. how many intermediate paths the flow crossed before
// settling (§2: "number of transient forwarding paths").
func (c *Collector) TransientPaths(failAt time.Duration) int {
	n := 0
	for _, ps := range c.PathHistory {
		if ps.At > failAt {
			n++
		}
	}
	return n
}

// DataDropsAfter counts non-control drops with the given reason at or
// after t.
func (c *Collector) DataDropsAfter(t time.Duration, reason netsim.DropReason) int {
	n := 0
	for _, d := range c.Drops {
		if !d.Control && d.At >= t && d.Reason == reason {
			n++
		}
	}
	return n
}

// DeliveredIn counts deliveries in the half-open interval [from, to).
func (c *Collector) DeliveredIn(from, to time.Duration) int {
	n := 0
	for _, d := range c.Deliveries {
		if d.At >= from && d.At < to {
			n++
		}
	}
	return n
}

func pathEqual(a, b []netsim.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
