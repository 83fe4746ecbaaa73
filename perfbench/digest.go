package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"routeconv/internal/core"
	"routeconv/internal/obs"
)

// trialRecord is the part of a trial's result the correctness gate pins:
// everything the paper measures plus the control-plane load. Per-bin
// series and obs counters are left out, so traced (metered) and untraced
// runs digest the same.
func trialRecord(tr core.TrialResult) string {
	return fmt.Sprintf("seed=%d link=%d-%d warm=%t sent=%d delivered=%d noroute=%d ttl=%d linkfail=%d queue=%d loss=%d ctlmsgs=%d ctlbytes=%d routeconv=%d fwdconv=%d",
		tr.Seed, tr.FailedLink.A, tr.FailedLink.B, tr.WarmedUp, tr.Sent, tr.Delivered,
		tr.NoRouteDrops, tr.TTLDrops, tr.LinkFailureDrops, tr.QueueDrops, tr.RandomLossDrops,
		tr.ControlMessages, tr.ControlBytes,
		int64(tr.RoutingConvergence), int64(tr.ForwardingConvergence))
}

func shortHash(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func trialDigest(tr core.TrialResult) string { return shortHash(trialRecord(tr)) }

// cellDigest digests a sweep cell's trials in order.
func cellDigest(trials []core.TrialResult) string {
	parts := make([]string, len(trials))
	for i, tr := range trials {
		parts[i] = trialRecord(tr)
	}
	return shortHash(parts...)
}

// references maps workload → size ("full" or "tiny") → seed → the unit
// digests of a correct run, in unit order.
type references map[string]map[string]map[string][]string

//go:embed reference.json
var referenceJSON []byte

func loadReferences() (references, error) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// lookup returns the reference digests for a run, or nil when the seed has
// none.
func (r references) lookup(workload string, tiny bool, seed int64) []string {
	return r[workload][sizeName(tiny)][strconv.FormatInt(seed, 10)]
}

func (r references) set(workload string, tiny bool, seed int64, digests []string) {
	if r[workload] == nil {
		r[workload] = map[string]map[string][]string{}
	}
	size := sizeName(tiny)
	if r[workload][size] == nil {
		r[workload][size] = map[string][]string{}
	}
	r[workload][size][strconv.FormatInt(seed, 10)] = digests
}

func sizeName(tiny bool) string {
	if tiny {
		return "tiny"
	}
	return "full"
}

// conservationError checks a trial's packet conservation identity,
// delivered + drops + in-flight == sent, over every data packet in the
// network (probe and background flows).
func conservationError(s obs.Snapshot) string {
	out := s["packets.delivered"] + s["drops.no_route"] + s["drops.ttl_expired"] +
		s["drops.queue_overflow"] + s["drops.link_failure"] + s["drops.random_loss"] +
		s["packets.in_flight_end"]
	if out != s["packets.sent"] {
		return fmt.Sprintf("conservation broken: delivered+drops+in-flight = %d, sent = %d", out, s["packets.sent"])
	}
	return ""
}

// trialTally sums the obs counters and the probe flow's recorded
// deliveries of a traced run.
type trialTally struct {
	snap      obs.Snapshot
	delivered int
}

// add folds trials into the tally and returns their conservation errors.
func (t *trialTally) add(trials []core.TrialResult) string {
	var errs string
	for _, tr := range trials {
		t.snap = t.snap.Merge(tr.Metrics)
		for _, n := range tr.Throughput {
			t.delivered += int(n) // the trace collector's deliveries, binned per second
		}
		if tr.Metrics == nil {
			errs = join(errs, "trial carries no obs counters")
			continue
		}
		errs = join(errs, conservationError(tr.Metrics))
	}
	return errs
}

// layers reports the counter-based per-layer metrics of a traced run
// whose runtime counters moved by rt over wall seconds.
func (t *trialTally) layers(m map[string]float64, rt runtimeSample, wall float64) {
	s := t.snap
	events := float64(s["events.fired"])
	m["sim.events"] = events
	m["sim.ns_per_event"] = 0
	if events > 0 {
		m["sim.ns_per_event"] = rt.cpuS * 1e9 / events
	}
	m["netsim.data_forwarded"] = float64(s["packets.forwarded"])
	m["netsim.control_sent"] = float64(s["control.sent"])
	m["netsim.control_bytes"] = float64(s["control.bytes"])
	m["fluid.settles"] = float64(s["fluid.settles"])
	m["fluid.demotions"] = float64(s["fluid.demotions"])
	m["routing.adv_skip_ratio"] = 0
	if r := s["proto.updates.received"]; r > 0 {
		m["routing.adv_skip_ratio"] = float64(s["proto.adv_skipped"]) / float64(r)
	}
	m["routing.decision_runs"] = float64(s["proto.decision_runs"])
	m["trace.deliveries"] = float64(t.delivered)
	m["scenario.events"] = float64(s["scenario.events"])
	m["scenario.churn_cycles"] = float64(s["scenario.churn_cycles"])
	m["runtime.gc_cycles"] = rt.gcCycles
	m["process.cpu_s"] = rt.cpuS
	m["process.parallelism"] = rt.cpuS / wall
}
