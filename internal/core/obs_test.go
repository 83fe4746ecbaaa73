package core

import "testing"

// TestMetricsConservation checks, per golden protocol scenario, that the
// obs counters account for every injected packet exactly once:
//
//	delivered + drops (all four causes) + in-flight-at-end == sent
//
// and that the counters mirror the independently-measured TrialResult
// fields. A failure means a forwarding path increments the wrong counter
// (or none) for some packet fate.
func TestMetricsConservation(t *testing.T) {
	cases := []struct {
		name   string
		config func() Config
	}{
		{"rip", func() Config { return goldenConfig(ProtoRIP) }},
		{"dbf", func() Config { return goldenConfig(ProtoDBF) }},
		{"bgp", func() Config { return goldenConfig(ProtoBGP) }},
		{"bgp3", func() Config { return goldenConfig(ProtoBGP3) }},
		{"ls", func() Config { return goldenConfig(ProtoLS) }},
		{"bgp3-damping", goldenDampingConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.config()
			cfg.Metrics = true
			tr, _, err := TraceObserved(cfg, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			m := tr.Metrics
			if m == nil {
				t.Fatal("Metrics enabled but TrialResult.Metrics is nil")
			}

			// Counters must mirror the harness's own accounting.
			mirror := []struct {
				key  string
				want int
			}{
				{"packets.sent", tr.Sent},
				{"packets.delivered", tr.Delivered},
				{"drops.no_route", tr.NoRouteDrops},
				{"drops.ttl_expired", tr.TTLDrops},
				{"drops.link_failure", tr.LinkFailureDrops},
				{"drops.queue_overflow", tr.QueueDrops},
				{"drops.random_loss", tr.RandomLossDrops},
			}
			for _, mm := range mirror {
				if got := m[mm.key]; got != uint64(mm.want) {
					t.Errorf("%s = %d, want %d (TrialResult)", mm.key, got, mm.want)
				}
			}

			// Conservation: every sent packet has exactly one fate.
			accounted := m["packets.delivered"] + m["drops.no_route"] +
				m["drops.ttl_expired"] + m["drops.queue_overflow"] +
				m["drops.link_failure"] + m["drops.random_loss"] +
				m["packets.in_flight_end"]
			if accounted != m["packets.sent"] {
				t.Errorf("conservation violated: delivered+drops+in_flight = %d, sent = %d\nsnapshot: %v",
					accounted, m["packets.sent"], m)
			}

			// Sanity: a convergence experiment exercises the control plane.
			for _, key := range []string{"control.sent", "control.received", "fib.changes", "events.fired"} {
				if m[key] == 0 {
					t.Errorf("%s = 0, want > 0", key)
				}
			}
		})
	}
}

// TestMetricsOffByDefault checks that with Config.Metrics unset no snapshot
// is attached — the obs layer must be pay-for-what-you-use.
func TestMetricsOffByDefault(t *testing.T) {
	tr, _, err := Trace(goldenConfig(ProtoDBF), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Metrics != nil {
		t.Fatalf("Metrics disabled but TrialResult.Metrics = %v", tr.Metrics)
	}
}

// TestPaperTrialLaneShare checks the traffic the event engine's fixed-delay
// lanes are built for: in a paper trial (default 7×7 mesh, 800 s) per-hop
// packet events dominate and recur at a few fixed delays, so at least 85%
// of all events must leave the queue from a lane rather than the heap.
func TestPaperTrialLaneShare(t *testing.T) {
	for _, p := range Protocols() {
		t.Run(p.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Protocol = p
			cfg.Trials = 1
			cfg.Metrics = true
			tr, _, err := TraceObserved(cfg, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			fired, laned := tr.Metrics["events.fired"], tr.Metrics["events.laned"]
			if fired == 0 {
				t.Fatal("no events fired")
			}
			if share := float64(laned) / float64(fired); share < 0.85 {
				t.Errorf("lane share %.3f (%d of %d events), want ≥ 0.85", share, laned, fired)
			}
		})
	}
}
