package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// Kind identifies one timeline record type. The string forms (see
// kindNames) are the `event` field of the NDJSON schema documented in
// OBSERVABILITY.md.
type Kind uint8

const (
	// KindTrialStart opens a timeline: one record carrying the trial seed.
	KindTrialStart Kind = iota
	// KindLinkDown and KindLinkUp mark the physical state change of the
	// link Node–Peer; KindLinkDownDetected / KindLinkUpDetected mark the
	// (later) moment the endpoints' protocols are notified.
	KindLinkDown
	KindLinkUp
	KindLinkDownDetected
	KindLinkUpDetected
	// KindFIBChange records node Node (re)pointing its forwarding entry
	// for Dst at next hop Peer; KindFIBRemove records the entry's
	// deletion (Peer is -1).
	KindFIBChange
	KindFIBRemove
	// KindWithdrawal records a BGP speaker (Node) sending neighbor Peer a
	// withdrawal for Dst.
	KindWithdrawal
	// KindRouteFlap records flap damping suppressing the route to Dst
	// learned from neighbor Peer at node Node; KindRouteReuse records the
	// suppression timer releasing it.
	KindRouteFlap
	KindRouteReuse
	// KindFirstFIBChange / KindLastFIBChange are synthesized by Finish:
	// per node, the first and last FIB event at or after the failure.
	KindFirstFIBChange
	KindLastFIBChange
	// KindConvergenceComplete is synthesized by Finish: the time of the
	// last FIB event anywhere at or after the failure.
	KindConvergenceComplete
	// KindFluidDemote records the hybrid traffic engine demoting the
	// Node→Dst flow class to packet-level simulation after a forwarding
	// change on its path; KindFluidAbsorb records its return to the
	// fluid once the guard window expires.
	KindFluidDemote
	KindFluidAbsorb
	// KindNodeDown and KindNodeUp mark a scenario-scripted node failure
	// and recovery of Node (its incident link events are logged
	// separately as link_down/link_up records).
	KindNodeDown
	KindNodeUp
	// KindLinkLoss records the Node–Peer link's random packet-loss
	// probability being set to Rate (0 clears it).
	KindLinkLoss
	// KindCostOut and KindCostIn mark the graceful maintenance events on
	// the Node–Peer link: protocols are notified immediately while the
	// link keeps carrying packets.
	KindCostOut
	KindCostIn
	// KindChurnStart and KindChurnEnd bracket a scripted churn window;
	// the start record carries the failure arrival Rate.
	KindChurnStart
	KindChurnEnd

	numKinds
)

var kindNames = [numKinds]string{
	KindTrialStart:          "trial_start",
	KindLinkDown:            "link_down",
	KindLinkUp:              "link_up",
	KindLinkDownDetected:    "link_down_detected",
	KindLinkUpDetected:      "link_up_detected",
	KindFIBChange:           "fib_change",
	KindFIBRemove:           "fib_remove",
	KindWithdrawal:          "withdrawal",
	KindRouteFlap:           "route_flap",
	KindRouteReuse:          "route_reuse",
	KindFirstFIBChange:      "fib_first_change",
	KindLastFIBChange:       "fib_last_change",
	KindConvergenceComplete: "convergence_complete",
	KindFluidDemote:         "fluid_demote",
	KindFluidAbsorb:         "fluid_absorb",
	KindNodeDown:            "node_down",
	KindNodeUp:              "node_up",
	KindLinkLoss:            "link_loss",
	KindCostOut:             "cost_out",
	KindCostIn:              "cost_in",
	KindChurnStart:          "churn_start",
	KindChurnEnd:            "churn_end",
}

// String returns the record type's NDJSON `event` value.
func (k Kind) String() string { return kindNames[k] }

// Record is one timeline event. Node/Peer/Dst are topology node IDs whose
// meaning depends on Kind (see the Kind constants); -1 marks a field the
// kind does not use. Seed is set only on KindTrialStart.
type Record struct {
	At   time.Duration
	Kind Kind
	Node int
	Peer int
	Dst  int
	Seed int64
	// Rate is set only on KindLinkLoss (the loss probability) and
	// KindChurnStart (failures per second).
	Rate float64
}

// Timeline is one trial's append-only convergence event log. Recording
// appends to a slice (amortized-allocation only, no I/O, no formatting);
// WriteNDJSON renders it once at the end. Like Metrics, a nil *Timeline is
// a no-op recorder, and no method touches the simulator: recording cannot
// change event order or consume randomness.
type Timeline struct {
	recs     []Record
	finished bool
}

// NewTimeline returns an empty timeline with room for a typical trial.
func NewTimeline() *Timeline {
	return &Timeline{recs: make([]Record, 0, 256)}
}

func (t *Timeline) add(r Record) {
	if t != nil {
		t.recs = append(t.recs, r)
	}
}

// TrialStart records the trial's opening, carrying its RNG seed.
func (t *Timeline) TrialStart(at time.Duration, seed int64) {
	t.add(Record{At: at, Kind: KindTrialStart, Node: -1, Peer: -1, Dst: -1, Seed: seed})
}

// Link records a physical link event between a and b: down/up, and later
// the detected variants when the endpoints learn of it.
func (t *Timeline) Link(at time.Duration, kind Kind, a, b int) {
	t.add(Record{At: at, Kind: kind, Node: a, Peer: b, Dst: -1})
}

// FIBChange records node installing nextHop as its forwarding entry for dst.
func (t *Timeline) FIBChange(at time.Duration, node, dst, nextHop int) {
	t.add(Record{At: at, Kind: KindFIBChange, Node: node, Peer: nextHop, Dst: dst})
}

// FIBRemove records node deleting its forwarding entry for dst.
func (t *Timeline) FIBRemove(at time.Duration, node, dst int) {
	t.add(Record{At: at, Kind: KindFIBRemove, Node: node, Peer: -1, Dst: dst})
}

// Withdrawal records node sending neighbor a BGP withdrawal for dst.
func (t *Timeline) Withdrawal(at time.Duration, node, neighbor, dst int) {
	t.add(Record{At: at, Kind: KindWithdrawal, Node: node, Peer: neighbor, Dst: dst})
}

// RouteFlap records flap damping suppressing (KindRouteFlap) or releasing
// (KindRouteReuse) the route to dst learned from neighbor at node.
func (t *Timeline) RouteFlap(at time.Duration, kind Kind, node, neighbor, dst int) {
	t.add(Record{At: at, Kind: kind, Node: node, Peer: neighbor, Dst: dst})
}

// FluidFlow records the hybrid engine demoting (KindFluidDemote) or
// re-absorbing (KindFluidAbsorb) the node→dst flow class.
func (t *Timeline) FluidFlow(at time.Duration, kind Kind, node, dst int) {
	t.add(Record{At: at, Kind: kind, Node: node, Peer: -1, Dst: dst})
}

// Node records a scenario node event: node down (KindNodeDown) or back up
// (KindNodeUp).
func (t *Timeline) Node(at time.Duration, kind Kind, node int) {
	t.add(Record{At: at, Kind: kind, Node: node, Peer: -1, Dst: -1})
}

// LinkLoss records the a–b link's random loss probability being set to p.
func (t *Timeline) LinkLoss(at time.Duration, a, b int, p float64) {
	t.add(Record{At: at, Kind: KindLinkLoss, Node: a, Peer: b, Dst: -1, Rate: p})
}

// Churn records a scripted churn window opening (KindChurnStart, with the
// failure arrival rate) or closing (KindChurnEnd).
func (t *Timeline) Churn(at time.Duration, kind Kind, rate float64) {
	t.add(Record{At: at, Kind: kind, Node: -1, Peer: -1, Dst: -1, Rate: rate})
}

// Len returns the number of records logged so far.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	return len(t.recs)
}

// Records returns the underlying record slice (not a copy).
func (t *Timeline) Records() []Record {
	if t == nil {
		return nil
	}
	return t.recs
}

// Finish synthesizes the summary records from the raw log: per node that
// changed its FIB at or after failAt, a fib_first_change and fib_last_change
// record (appended in ascending node order), and one convergence_complete
// record at the time of the last such change anywhere. Finish is
// idempotent; calling it on a nil or empty timeline is a no-op.
func (t *Timeline) Finish(failAt time.Duration) {
	if t == nil || t.finished || len(t.recs) == 0 {
		return
	}
	t.finished = true
	first := make(map[int]time.Duration)
	last := make(map[int]time.Duration)
	var complete time.Duration
	any := false
	for _, r := range t.recs {
		if (r.Kind != KindFIBChange && r.Kind != KindFIBRemove) || r.At < failAt {
			continue
		}
		if _, ok := first[r.Node]; !ok {
			first[r.Node] = r.At
		}
		last[r.Node] = r.At
		if r.At > complete {
			complete = r.At
		}
		any = true
	}
	nodes := make([]int, 0, len(first))
	for n := range first {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		t.add(Record{At: first[n], Kind: KindFirstFIBChange, Node: n, Peer: -1, Dst: -1})
		t.add(Record{At: last[n], Kind: KindLastFIBChange, Node: n, Peer: -1, Dst: -1})
	}
	if any {
		t.add(Record{At: complete, Kind: KindConvergenceComplete, Node: -1, Peer: -1, Dst: -1})
	}
}

// WriteNDJSON renders the timeline as newline-delimited JSON, one record
// per line in log order, per the schema in OBSERVABILITY.md. Field names
// depend on the record kind; unused fields are omitted rather than emitted
// as -1. Writing happens only here — never during the simulation.
func (t *Timeline) WriteNDJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, r := range t.recs {
		var err error
		switch r.Kind {
		case KindTrialStart:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"seed":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Seed)
		case KindLinkDown, KindLinkUp, KindLinkDownDetected, KindLinkUpDetected, KindCostOut, KindCostIn:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"peer":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer)
		case KindFIBChange:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"dst":%d,"next_hop":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Dst, r.Peer)
		case KindFIBRemove:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"dst":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Dst)
		case KindWithdrawal:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"neighbor":%d,"dst":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer, r.Dst)
		case KindRouteFlap, KindRouteReuse:
			state := "suppressed"
			if r.Kind == KindRouteReuse {
				state = "reused"
			}
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"neighbor":%d,"dst":%d,"state":%q}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer, r.Dst, state)
		case KindFirstFIBChange, KindLastFIBChange:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node)
		case KindConvergenceComplete:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind])
		case KindFluidDemote, KindFluidAbsorb:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"dst":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Dst)
		case KindNodeDown, KindNodeUp:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node)
		case KindLinkLoss:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"peer":%d,"rate":%g}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer, r.Rate)
		case KindChurnStart:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"rate":%g}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Rate)
		case KindChurnEnd:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind])
		default:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"peer":%d,"dst":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer, r.Dst)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
