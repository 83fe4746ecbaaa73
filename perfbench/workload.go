package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"routeconv/internal/core"
	"routeconv/internal/sweep"
	"routeconv/internal/topology"
)

// A workload is one fixed batch of simulation work, run as a closed loop:
// the batch is submitted whole and the next iteration starts only after it
// completes. A workload is either a sweep (run through sweep.Run with a
// fresh result cache, like cmd/figures) or a single experiment config (run
// through core.Run). Exactly one of sweep and trial is non-nil.
type workload struct {
	name string
	why  string
	// sweep builds the sweep spec for a seed at the given size.
	sweep func(seed int64, tiny bool) sweep.Spec
	// trial builds the experiment config for a seed at the given size.
	trial func(seed int64, tiny bool) core.Config
	// script, when non-nil, generates the trial's disturbance script from
	// the resolved topology.
	script func(g *topology.Graph, tiny bool) string
	// serial, when positive, runs that many single-trial experiments one
	// after another instead of trial's config as one parallel experiment.
	serial int
}

// workloads is the benchmark's workload set, in BENCHMARK.json order.
var workloads = []workload{
	{
		name:  "paper-sweep",
		why:   "the paper's own traffic: many short 7x7-mesh trials per protocol and degree; event engine and packet forwarding dominate",
		sweep: paperSweep,
	},
	{
		name:   "scale-rip",
		why:    "large RIP trials run one at a time on one core with almost no data traffic; RIP receive handling, the event heap and dense tables dominate",
		trial:  scaleRIP,
		serial: 3,
	},
	{
		name:   "churn-bgp3-hybrid",
		why:    "scripted churn and loss with fluid background flows; BGP MRAI flush, fluid settlement and the scenario executor dominate",
		trial:  churnBGP3,
		script: churnScript,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// paperSweep is the paper's §5 setup — 7×7 mesh, 800 s horizon, one
// on-path failure at 400 s — over the four protocols and interior degrees
// 3–6.
func paperSweep(seed int64, tiny bool) sweep.Spec {
	spec := sweep.Spec{
		Name:      "perfbench-paper",
		Protocols: []string{"rip", "dbf", "bgp", "bgp3"},
		Degrees:   []int{3, 4, 5, 6},
		Trials:    8,
		Seed:      seed,
	}
	if tiny {
		spec.Degrees = []int{3, 4}
		spec.Trials = 2
		spec.End = sweep.Duration(450 * time.Second)
	}
	return spec
}

// scaleRIP is a RIP convergence trial on a Barabási–Albert graph with the
// scale tuning of the 10k-node smoke preset (scaleSmokeConfig in
// internal/core/scale_test.go), rebuilt from public Config fields: periodic
// floods pushed past the horizon, tight triggered-update damping, large
// update messages, and an infinity above the graph's diameter. The graph
// is fixed; the seed drives the trial's jitter and failure choice. The
// workload runs three such trials in series, so that no one failure choice
// decides its cost.
func scaleRIP(seed int64, tiny bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Protocol = core.ProtoRIP
	cfg.Topo = "ba:n=2000,m=2,seed=1"
	cfg.Trials = 1
	cfg.Seed = seed
	cfg.SenderStart = 12 * time.Second
	cfg.FailAt = 15 * time.Second
	cfg.End = 25 * time.Second
	cfg.Vector.PeriodicInterval = 600 * time.Second
	cfg.Vector.PeriodicJitter = time.Second
	cfg.Vector.DampMin = 500 * time.Millisecond
	cfg.Vector.DampMax = time.Second
	cfg.Vector.MaxEntries = 5000
	cfg.Vector.Infinity = 24
	if tiny {
		cfg.Topo = "ba:n=200,m=2,seed=1"
	}
	return cfg
}

// churnBGP3 runs BGP3 trials on a 120-node Barabási–Albert graph carrying
// background flows in hybrid packet/fluid mode. churnScript supplies the
// disturbances.
func churnBGP3(seed int64, tiny bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Protocol = core.ProtoBGP3
	cfg.Topo = "ba:n=120,m=2,seed=3"
	cfg.Trials = 8
	cfg.Seed = seed
	cfg.Flows = 10000
	cfg.Mode = core.ModeHybrid
	cfg.SenderStart = 90 * time.Second
	cfg.FailAt = 100 * time.Second
	cfg.End = 170 * time.Second
	if tiny {
		cfg.Topo = "ba:n=40,m=2,seed=3"
		cfg.Trials = 2
		cfg.Flows = 500
		cfg.End = 150 * time.Second
	}
	return cfg
}

// churnScript fails the probe's path, makes one link lossy, runs the
// scenario engine's random churn, and fails and restores a fixed set of
// distinct links, one every 5 s. The fixed set keeps the disturbance work
// the same for every seed (which links fail decides most of BGP's work);
// the seed still drives each trial's failed path, flows, jitter and churn.
func churnScript(g *topology.Graph, tiny bool) string {
	pairs, end := 8, 150*time.Second
	if tiny {
		pairs, end = 3, 130*time.Second
	}
	start := 110 * time.Second
	var b strings.Builder
	fmt.Fprintf(&b, "failpath @100s; loss link 1-2 p=0.05 @105s; churn links rate=0.02/s down=5s @%v..%v", start, end)
	edges := g.Edges()
	rng := rand.New(rand.NewSource(1))
	for i, k := range rng.Perm(len(edges))[:pairs] {
		at := start + time.Duration(i)*5*time.Second
		e := edges[k]
		fmt.Fprintf(&b, "; fail link %d-%d @%v; restore link %d-%d @%v", e.A, e.B, at, e.A, e.B, at+4*time.Second)
	}
	return b.String()
}
