package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// runner spawns iteration children.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--child" {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func tinyRun(t *testing.T, workload string, trace bool, refs references) *report {
	t.Helper()
	o := options{workload: workload, seed: 1, seconds: 1, trace: trace, tiny: true, buildDir: t.TempDir()}
	rep, err := runBench(context.Background(), o, refs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func mustRefs(t *testing.T) references {
	t.Helper()
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func resultNames(r result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestTinyWorkloads runs every workload end to end at tiny size, timed and
// traced, and checks the output against the committed references. The
// traced run matching them is the passivity check: decorated, metered
// trials digest the same as untraced ones.
func TestTinyWorkloads(t *testing.T) {
	refs := mustRefs(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, trace), func(t *testing.T) {
				rep := tinyRun(t, w.name, trace, refs)
				r := rep.result
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("correct=%t failed=%d attempted=%d errors=%v", r.Correct, r.Failed, r.Attempted, rep.unitErrors)
				}
				want := metricNames(endToEnd)
				if trace {
					want = metricNames(perLayer)
				}
				if got := resultNames(r); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("metrics %v, want %v", got, want)
				}
				for n, m := range r.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", n, m.Value)
					}
				}
				if trace {
					// A timing that read zero on some workload would read the
					// same on every run; every timing must be exercised.
					for _, d := range perLayer {
						if (d.unit == "s" || d.unit == "us" || d.unit == "ns") && r.Metrics[d.name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", d.name, r.Metrics[d.name].Value)
						}
					}
				} else {
					for _, n := range []string{"wall_s", "setup_s", "peak_rss_mb", "alloc_mb", "allocs_m", "pass_rate"} {
						if r.Metrics[n].Value <= 0 {
							t.Errorf("%s = %v, want > 0", n, r.Metrics[n].Value)
						}
					}
				}
			})
		}
	}
}

// TestSweepWarmPath checks the warm re-run of the sweep workload: every
// cell a cache hit (and, through the unit checks, identical to the cold
// run).
func TestSweepWarmPath(t *testing.T) {
	rep := tinyRun(t, "paper-sweep", true, mustRefs(t))
	if got := rep.result.Metrics["sweep.cache_hit_ratio"].Value; got != 1 {
		t.Errorf("sweep.cache_hit_ratio = %v, want 1", got)
	}
	if warm := rep.result.Metrics["sweep.warm_ratio"].Value; warm <= 0 || warm >= 1 {
		t.Errorf("sweep.warm_ratio = %v, want a warm re-run faster than the cold one", warm)
	}
	if cells := rep.result.Metrics["sweep.cells"].Value; cells != 8 {
		t.Errorf("sweep.cells = %v, want 8", cells)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics the benchmark implements, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d = %s [%s], want %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestCorruptedReferenceFails flips one committed digest and expects the
// run to count that unit as failed in every iteration.
func TestCorruptedReferenceFails(t *testing.T) {
	refs := mustRefs(t)
	ref := refs.lookup("scale-rip", true, 1)
	if len(ref) == 0 {
		t.Fatal("no tiny scale-rip reference for seed 1")
	}
	bad := append([]string(nil), ref...)
	bad[0] = strings.Repeat("0", len(bad[0]))
	refs.set("scale-rip", true, 1, bad)
	rep := tinyRun(t, "scale-rip", false, refs)
	r := rep.result
	if r.Correct || r.Failed == 0 {
		t.Fatalf("corrupted reference passed: correct=%t failed=%d", r.Correct, r.Failed)
	}
	if rate := float64(r.Failed) / float64(r.Attempted); rate <= 0 || r.Metrics["pass_rate"].Value >= 1 {
		t.Errorf("error rate %v, pass_rate %v", rate, r.Metrics["pass_rate"].Value)
	}
}

// TestCPUSharesSumToOne checks that the profile buckets partition the
// traced run's CPU time.
func TestCPUSharesSumToOne(t *testing.T) {
	rep := tinyRun(t, "paper-sweep", true, mustRefs(t))
	var sum float64
	for _, b := range cpuShareBuckets {
		sum += rep.result.Metrics[shareMetric(b)].Value
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("CPU shares sum to %v, want 1 ± 0.01", sum)
	}
}

func TestClassify(t *testing.T) {
	f := func(name, file string) frame { return frame{name: name, file: file} }
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{f("routeconv/internal/sim.(*Simulator).Run", "/x/internal/sim/sim.go")}, "sim"},
		{[]frame{f("routeconv/internal/netsim.(*FlowSet).settle", "/x/internal/netsim/fluid.go")}, "fluid"},
		{[]frame{f("routeconv/internal/netsim.(*Node).forward", "/x/internal/netsim/node.go")}, "netsim"},
		{[]frame{f("runtime.mapaccess2_fast32", ""), f("routeconv/internal/routing/rip.(*Protocol).HandleMessage", "")}, "routing.rip"},
		{[]frame{f("runtime.memclrNoHeapPointers", ""), f("runtime.mallocgc", ""), f("routeconv/internal/routing/bgp.(*Protocol).flush", "")}, "runtime.malloc"},
		{[]frame{f("runtime.scanobject", ""), f("runtime.gcDrain", ""), f("runtime.gcBgMarkWorker", "")}, "runtime.gc"},
		{[]frame{f("sort.Slice[...]", ""), f("routeconv/internal/scenario.Parse", "")}, "core"},
		{[]frame{f("routeconv/internal/routing.(*Burst).Release", "")}, "routing"},
		{[]frame{f("time.Now", ""), f("main.(*timedProtocol).HandleMessage", ""), f("routeconv/internal/netsim.(*Node).receive", "")}, "other"},
		{[]frame{f("runtime.futex", "")}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestLatencyHistQuantile(t *testing.T) {
	var h latencyHist
	for ns := int64(1); ns <= 1000; ns++ {
		h.add(ns * 100)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.07 {
			t.Errorf("quantile(%v) = %v, want %v ± 7%%", q, got, want)
		}
	}
}
