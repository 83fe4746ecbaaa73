package main

import (
	"math/bits"
	"sync"
	"time"

	"routeconv/internal/core"
	"routeconv/internal/netsim"
	"routeconv/internal/routing/bgp"
	"routeconv/internal/routing/dbf"
	"routeconv/internal/routing/rip"
	"routeconv/internal/sim"
)

// probedProtocols are the protocols whose calls the traced run reports,
// whether or not the workload runs them.
var probedProtocols = []string{"rip", "dbf", "bgp", "bgp3"}

// callStats accumulates one protocol's call timings within one trial.
// Trials are single-threaded, so a callStats needs no locking while its
// trial runs.
type callStats struct {
	proto       string
	handleCalls int64
	handleNS    int64
	handleHist  latencyHist
	linkNS      int64
	startNS     int64
}

func (c *callStats) merge(o *callStats) {
	c.handleCalls += o.handleCalls
	c.handleNS += o.handleNS
	c.linkNS += o.linkNS
	c.startNS += o.startNS
	for i := range c.handleHist {
		c.handleHist[i] += o.handleHist[i]
	}
}

// latencyHist is a log-linear histogram of nanosecond durations: values
// below 16 get exact buckets, larger ones 16 buckets per power of two
// (about 6% resolution).
type latencyHist [16 + 60*16]uint64

func histBucket(ns int64) int {
	if ns < 16 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // ns in [2^e, 2^(e+1))
	sub := int(uint64(ns)>>(e-4)) & 15
	return 16 + (e-4)*16 + sub
}

// bucketLow is the smallest value that lands in bucket b.
func bucketLow(b int) float64 {
	if b < 16 {
		return float64(b)
	}
	e := (b-16)/16 + 4
	sub := (b - 16) % 16
	return float64(uint64(16+sub) << (e - 4))
}

func (h *latencyHist) add(ns int64) { h[histBucket(ns)]++ }

// quantile returns the q-quantile in nanoseconds, taken as the midpoint of
// the bucket holding it.
func (h *latencyHist) quantile(q float64) float64 {
	var total uint64
	for _, c := range h {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for b, c := range h {
		cum += c
		if cum > rank {
			return (bucketLow(b) + bucketLow(b+1)) / 2
		}
	}
	return 0
}

// probe wraps protocol constructors with timing decorators. Decorated
// nodes of one trial share a callStats, found by the trial's simulator;
// flush folds finished trials into the per-protocol totals.
type probe struct {
	mu     sync.Mutex
	live   map[*sim.Simulator]*callStats
	totals map[string]*callStats
}

func newProbe() *probe {
	p := &probe{
		live:   map[*sim.Simulator]*callStats{},
		totals: map[string]*callStats{},
	}
	for _, name := range probedProtocols {
		p.totals[name] = &callStats{proto: name}
	}
	return p
}

// realFactory is the constructor core would use for cfg's protocol.
func realFactory(cfg *core.Config) func(*netsim.Node) netsim.Protocol {
	switch cfg.Protocol {
	case core.ProtoRIP:
		return rip.Factory(cfg.Vector)
	case core.ProtoDBF:
		return dbf.Factory(cfg.Vector)
	case core.ProtoBGP:
		return bgp.Factory(cfg.BGP)
	case core.ProtoBGP3:
		return bgp.Factory(cfg.BGP3)
	}
	return nil
}

// wrap returns a Factory that builds cfg's real protocol and decorates it.
func (p *probe) wrap(cfg *core.Config) func(*netsim.Node) netsim.Protocol {
	inner := realFactory(cfg)
	name := cfg.Protocol.String()
	return func(n *netsim.Node) netsim.Protocol {
		p.mu.Lock()
		st, ok := p.live[n.Sim()]
		if !ok {
			st = &callStats{proto: name}
			p.live[n.Sim()] = st
		}
		p.mu.Unlock()
		return &timedProtocol{inner: inner(n), st: st}
	}
}

// flush folds every trial recorded so far into the totals. Call it only
// when no decorated trial is running.
func (p *probe) flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for s, st := range p.live {
		p.totals[st.proto].merge(st)
		delete(p.live, s)
	}
}

// layers reports the protocol call metrics: timings over every protocol
// the workload runs, so that each is measured on every workload, and each
// protocol's call count and share of the handling time.
func (p *probe) layers(m map[string]float64) {
	all := &callStats{}
	for _, name := range probedProtocols {
		all.merge(p.totals[name])
	}
	m["routing.handle_calls"] = float64(all.handleCalls)
	m["routing.handle_s"] = float64(all.handleNS) / 1e9
	m["routing.handle_us_p50"] = all.handleHist.quantile(0.50) / 1e3
	m["routing.handle_us_p99"] = all.handleHist.quantile(0.99) / 1e3
	m["routing.link_event_s"] = float64(all.linkNS) / 1e9
	m["routing.start_s"] = float64(all.startNS) / 1e9
	for _, name := range probedProtocols {
		t := p.totals[name]
		m["routing."+name+".handle_calls"] = float64(t.handleCalls)
		m["routing."+name+".handle_share"] = 0
		if all.handleNS > 0 {
			m["routing."+name+".handle_share"] = float64(t.handleNS) / float64(all.handleNS)
		}
	}
}

// timedProtocol times every call into the protocol it wraps. It forwards
// each call unchanged, so a decorated trial behaves exactly like an
// undecorated one.
type timedProtocol struct {
	inner netsim.Protocol
	st    *callStats
}

func (t *timedProtocol) Start() {
	t0 := time.Now()
	t.inner.Start()
	t.st.startNS += int64(time.Since(t0))
}

func (t *timedProtocol) HandleMessage(from netsim.NodeID, msg netsim.Message) {
	t0 := time.Now()
	t.inner.HandleMessage(from, msg)
	d := int64(time.Since(t0))
	t.st.handleCalls++
	t.st.handleNS += d
	t.st.handleHist.add(d)
}

func (t *timedProtocol) LinkDown(neighbor netsim.NodeID) {
	t0 := time.Now()
	t.inner.LinkDown(neighbor)
	t.st.linkNS += int64(time.Since(t0))
}

func (t *timedProtocol) LinkUp(neighbor netsim.NodeID) {
	t0 := time.Now()
	t.inner.LinkUp(neighbor)
	t.st.linkNS += int64(time.Since(t0))
}
