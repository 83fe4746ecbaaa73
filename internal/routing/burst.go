package routing

import (
	"routeconv/internal/netsim"
)

// Burst is one staged advertisement snapshot, shared by every neighbor's
// update messages of a single broadcast. Under poisoned reverse the entry
// list sent to each neighbor differs only in metric values (poisoned
// entries keep their slot), so instead of materializing a per-neighbor
// copy the messages carry index ranges into this shared snapshot and apply
// the poison at read time. The refcount keeps the snapshot alive until the
// last in-flight message is released. A trial runs on one event loop, so
// the plain int is race-free.
type Burst struct {
	Entries []VectorEntry // staged routes, ascending destination
	NextHop []NodeID      // parallel: next hop at staging (poison input)
	Origin  NodeID        // the advertising node
	Inf     int32         // poison metric
	Ver     uint64        // sender's change-version clock at staging
	Full    bool          // snapshot covers the sender's whole table
	refs    int
	pool    *BurstSender
}

// Retain adds one reference (one in-flight message view).
func (b *Burst) Retain() { b.refs++ }

// Grow ensures capacity for need staged entries in a single exact
// allocation. Stagers that know their entry count up front (a live-route
// counter for fulls, a changed-bit popcount for triggered updates) call it
// right after Begin, so a burst drawn fresh from an empty pool — the
// common case in a convergence storm, when every pooled burst is still in
// flight — pays one allocation instead of append-doubling copies.
func (b *Burst) Grow(need int) {
	if cap(b.Entries) < need {
		b.Entries = make([]VectorEntry, 0, need)
		b.NextHop = make([]NodeID, 0, need)
	}
}

// Release drops one reference; the last one returns the burst — with its
// entry storage, for reuse — to its owner's free list.
func (b *Burst) Release() {
	b.refs--
	if b.refs > 0 {
		return
	}
	b.Entries = b.Entries[:0]
	b.NextHop = b.NextHop[:0]
	b.Full = false
	if b.pool != nil {
		b.pool.bursts = append(b.pool.bursts, b)
	}
}

// BurstSender owns the free lists for burst-backed advertisement sends:
// snapshot buffers and VectorUpdate shells both cycle through it, so a
// steady-state broadcast allocates nothing. The zero value is ready to use.
type BurstSender struct {
	bursts []*Burst
	shells []*VectorUpdate
	cur    *Burst
}

// Begin starts staging a broadcast: it returns an empty burst (the caller
// appends to Entries and NextHop in ascending destination order) stamped
// with the sender's identity, poison metric, version clock, and whether
// the snapshot is a full table. The sender holds a guard reference until
// End.
func (s *BurstSender) Begin(origin NodeID, inf int32, ver uint64, full bool) *Burst {
	var b *Burst
	if n := len(s.bursts); n > 0 {
		b = s.bursts[n-1]
		s.bursts[n-1] = nil
		s.bursts = s.bursts[:n-1]
	} else {
		b = &Burst{pool: s}
	}
	b.Origin, b.Inf, b.Ver, b.Full = origin, inf, ver, full
	b.refs = 1
	s.cur = b
	return b
}

// Staged returns the burst currently being staged (between Begin and End).
func (s *BurstSender) Staged() *Burst { return s.cur }

// shell returns a zeroed VectorUpdate from the free list.
func (s *BurstSender) shell() *VectorUpdate {
	if n := len(s.shells); n > 0 {
		u := s.shells[n-1]
		s.shells[n-1] = nil
		s.shells = s.shells[:n-1]
		return u
	}
	return &VectorUpdate{}
}

// view builds one pooled chunk message over [start, end) addressed to a
// neighbor.
func (s *BurstSender) view(cfg *VectorConfig, to NodeID, start, end int) *VectorUpdate {
	u := s.shell()
	u.burst, u.to = s.cur, to
	u.start, u.end = int32(start), int32(end)
	u.header, u.entry = cfg.HeaderBytes, cfg.EntryBytes
	u.pool = s
	s.cur.Retain()
	return u
}

// SendTo transmits the staged burst to one neighbor as chunked view
// messages (at most cfg.MaxEntries entries each — the same packing as
// PackEntries) and returns the number of messages sent.
func (s *BurstSender) SendTo(node *netsim.Node, cfg *VectorConfig, to NodeID) int {
	total := len(s.cur.Entries)
	sent := 0
	for start := 0; start < total; start += cfg.MaxEntries {
		end := start + cfg.MaxEntries
		if end > total {
			end = total
		}
		node.SendControl(to, s.view(cfg, to, start, end))
		sent++
	}
	return sent
}

// Views appends the chunk messages for one neighbor to dst without
// sending them. Exposed for tests and tools that need to inspect or
// deliver burst-backed updates by hand.
func (s *BurstSender) Views(dst []*VectorUpdate, cfg *VectorConfig, to NodeID) []*VectorUpdate {
	total := len(s.cur.Entries)
	for start := 0; start < total; start += cfg.MaxEntries {
		end := start + cfg.MaxEntries
		if end > total {
			end = total
		}
		dst = append(dst, s.view(cfg, to, start, end))
	}
	return dst
}

// End releases the sender's guard reference taken by Begin. Messages still
// in flight keep the snapshot alive through their own references.
func (s *BurstSender) End() {
	s.cur.Release()
	s.cur = nil
}
