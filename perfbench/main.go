// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time as a closed loop of identical batches, each batch in a fresh
// child process, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1) as a JSON object on its last output line.
// See README.md in this directory.
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 36 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of a timed run. All are medians over the run's
// iterations except pass_rate, the share of checked units (sweep cells or
// trials) that were correct: 1 - error_rate.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"allocs_m", "M"},
	{"pass_rate", "share"},
}

// perLayer are the metrics of a traced run; every workload reports all of
// them, with zero for layers it does not exercise. Every timing is one that
// all workloads exercise; what only some workloads have is reported as a
// count or a ratio.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"}, {"sim.ns_per_event", "ns"},
		{"netsim.data_forwarded", "count"}, {"netsim.control_sent", "count"}, {"netsim.control_bytes", "B"},
		{"fluid.settles", "count"}, {"fluid.demotions", "count"},
	}
	defs = append(defs,
		metricDef{"routing.handle_calls", "count"}, metricDef{"routing.handle_s", "s"},
		metricDef{"routing.handle_us_p50", "us"}, metricDef{"routing.handle_us_p99", "us"},
		metricDef{"routing.link_event_s", "s"}, metricDef{"routing.start_s", "s"})
	for _, p := range probedProtocols {
		defs = append(defs,
			metricDef{"routing." + p + ".handle_calls", "count"},
			metricDef{"routing." + p + ".handle_share", "share"})
	}
	defs = append(defs,
		metricDef{"routing.adv_skip_ratio", "ratio"}, metricDef{"routing.decision_runs", "count"},
		metricDef{"trace.deliveries", "count"},
		metricDef{"scenario.events", "count"}, metricDef{"scenario.churn_cycles", "count"},
		metricDef{"sweep.cells", "count"}, metricDef{"sweep.cell_p50_ratio", "ratio"},
		metricDef{"sweep.warm_ratio", "ratio"}, metricDef{"sweep.cache_hit_ratio", "ratio"},
		metricDef{"topology.build_s", "s"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.heap_peak_mb", "MB"},
		metricDef{"process.cpu_s", "s"}, metricDef{"process.parallelism", "ratio"},
		metricDef{"bench.trace_overhead", "ratio"})
	for _, b := range cpuShareBuckets {
		defs = append(defs, metricDef{shareMetric(b), "share"})
	}
	return defs
}()

// heldOutSeeds are the seeds with committed reference digests: the default
// seed, and a second one kept for re-checking a gain claim on a seed the
// claimant did not tune on.
var heldOutSeeds = []int64{1, 2}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool
	buildDir string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o      options
		trace  int
		size   string
		child  bool
		record string
	)
	fs.StringVar(&o.workload, "workload", "paper-sweep", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 36, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	fs.StringVar(&size, "size", "full", `workload size: "full" or "tiny" (self-tests)`)
	fs.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for scratch files and results")
	fs.BoolVar(&child, "child", false, "run one iteration in this process (internal)")
	fs.StringVar(&record, "record", "", "write reference digests for every workload, size and held-out seed to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch size {
	case "full", "tiny":
		o.tiny = size == "tiny"
	default:
		return fmt.Errorf("bad --size %q", size)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("bad --trace %d", trace)
	}
	o.trace = trace == 1
	if record != "" {
		return recordReferences(o.buildDir, record)
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	if child {
		return childMain(w, o.seed, o.tiny, o.trace, o.buildDir)
	}
	if o.seconds < 1 {
		return fmt.Errorf("bad --seconds %d", o.seconds)
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	rep, err := runBench(context.Background(), o, refs)
	if err != nil {
		return err
	}
	return rep.print(stdout)
}

// report is a finished benchmark run.
type report struct {
	opts       options
	host       hostInfo
	result     result
	plain      []*iteration
	traced     []*iteration
	unitErrors []string
}

// runBench runs iterations of the workload until the next one would end
// after --seconds (at least one), then checks and aggregates them. A
// traced run alternates an untraced and a traced iteration.
func runBench(ctx context.Context, o options, refs references) (*report, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	rep := &report{opts: o, host: readHost()}
	rec := &spanRecorder{}
	root := rec.start("workload "+w.name, 0)
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var perIter []float64
	for k := 0; ; k++ {
		t0 := time.Now()
		it, err := spawnIteration(ctx, o, false, k)
		if err != nil {
			return nil, err
		}
		rep.plain = append(rep.plain, it)
		rec.adopt(it.Spans, root)
		if o.trace {
			it, err := spawnIteration(ctx, o, true, k)
			if err != nil {
				return nil, err
			}
			rep.traced = append(rep.traced, it)
			rec.adopt(it.Spans, root)
		}
		perIter = append(perIter, time.Since(t0).Seconds())
		if time.Since(start).Seconds()+median(perIter) > budget.Seconds() {
			break
		}
	}
	rec.end(root)

	ref := refs.lookup(w.name, o.tiny, o.seed)
	if ref == nil {
		// No committed reference for this seed: every iteration must
		// reproduce the first one exactly.
		for _, u := range rep.plain[0].Units {
			ref = append(ref, u.Digest)
		}
	}
	res := &rep.result
	for _, it := range append(append([]*iteration{}, rep.plain...), rep.traced...) {
		res.Attempted += len(ref)
		for i, want := range ref {
			switch {
			case i >= len(it.Units):
				res.Failed++
				rep.unitErrors = append(rep.unitErrors, fmt.Sprintf("unit %d missing", i))
			case it.Units[i].Err != "":
				res.Failed++
				rep.unitErrors = append(rep.unitErrors, it.Units[i].ID+": "+it.Units[i].Err)
			case it.Units[i].Digest != want:
				res.Failed++
				rep.unitErrors = append(rep.unitErrors, fmt.Sprintf("%s: digest %s, want %s", it.Units[i].ID, it.Units[i].Digest, want))
			}
		}
		if extra := len(it.Units) - len(ref); extra > 0 {
			res.Attempted += extra
			res.Failed += extra
			rep.unitErrors = append(rep.unitErrors, fmt.Sprintf("%d units beyond the reference", extra))
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metricValue{}
	if o.trace {
		rep.layerMetrics()
	} else {
		rep.endToEndMetrics()
	}
	if err := rep.save(rec.spans); err != nil {
		return nil, err
	}
	return rep, nil
}

func (rep *report) endToEndMetrics() {
	var setup, wall, rss, alloc, allocs []float64
	for _, it := range rep.plain {
		setup = append(setup, it.SetupS...)
		wall = append(wall, it.WallS)
		rss = append(rss, it.PeakRSSMB)
		alloc = append(alloc, it.AllocMB)
		allocs = append(allocs, it.AllocsM)
	}
	r := &rep.result
	values := map[string]float64{
		"wall_s":      median(wall),
		"setup_s":     median(setup),
		"peak_rss_mb": median(rss),
		"alloc_mb":    median(alloc),
		"allocs_m":    median(allocs),
		"pass_rate":   1 - float64(r.Failed)/float64(r.Attempted),
	}
	for _, d := range endToEnd {
		r.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
}

// layerMetrics takes each per-layer metric's median over the iterations
// that measure it: timings of the untraced path (set-up, sweep cells, the
// warm sweep) from the untraced iterations, everything else from the
// traced ones. CPU shares are means instead, so that they still sum to one.
func (rep *report) layerMetrics() {
	var plainWall, tracedWall []float64
	for _, it := range rep.plain {
		plainWall = append(plainWall, it.WallS)
	}
	for _, it := range rep.traced {
		tracedWall = append(tracedWall, it.WallS)
	}
	for _, d := range perLayer {
		var x float64
		switch {
		case strings.HasSuffix(d.name, "cpu_share"):
			for _, it := range rep.traced {
				x += it.Layers[d.name] / float64(len(rep.traced))
			}
		case d.name == "bench.trace_overhead":
			x = median(tracedWall) / median(plainWall)
		default:
			var ok bool
			if x, ok = layerMedian(rep.plain, d.name); !ok {
				x, _ = layerMedian(rep.traced, d.name)
			}
		}
		rep.result.Metrics[d.name] = metricValue{x, d.unit}
	}
}

// layerMedian is the median of a layer metric over the iterations that
// report it, or false when none does.
func layerMedian(its []*iteration, key string) (float64, bool) {
	var xs []float64
	for _, it := range its {
		if v, ok := it.Layers[key]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs), len(xs) > 0
}

// spawnIteration runs one iteration in a fresh child process, so that each
// iteration's peak RSS and heap start from nothing.
func spawnIteration(ctx context.Context, o options, traced bool, k int) (*iteration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(o.buildDir, "work", fmt.Sprintf("%d-%d-%t", os.Getpid(), k, traced)))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--child",
		"--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--trace", trace, "--size", sizeName(o.tiny), "--build-dir", dir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("iteration %d (traced=%t): %w", k, traced, err)
	}
	var it iteration
	if err := json.Unmarshal(lastLine(out.Bytes()), &it); err != nil {
		return nil, fmt.Errorf("iteration %d: bad child output: %w", k, err)
	}
	return &it, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// adopt re-parents a child's spans under parent, renumbering their IDs.
func (r *spanRecorder) adopt(spans []span, parent int) {
	base := len(r.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// save writes the result with the host fingerprint, and the spans, under
// the build directory.
func (rep *report) save(spans []span) error {
	stem := fmt.Sprintf("%s-%s-seed%d-trace%d", rep.opts.workload, sizeName(rep.opts.tiny), rep.opts.seed, b2i(rep.opts.trace))
	type iterSummary struct {
		Traced    bool               `json:"traced"`
		SetupS    []float64          `json:"setup_s"`
		WallS     float64            `json:"wall_s"`
		PeakRSSMB float64            `json:"peak_rss_mb"`
		AllocMB   float64            `json:"alloc_mb"`
		AllocsM   float64            `json:"allocs_m"`
		Layers    map[string]float64 `json:"layers,omitempty"`
	}
	var iters []iterSummary
	for _, it := range append(append([]*iteration{}, rep.plain...), rep.traced...) {
		iters = append(iters, iterSummary{it.Traced, it.SetupS, it.WallS, it.PeakRSSMB, it.AllocMB, it.AllocsM, it.Layers})
	}
	doc := map[string]any{
		"workload":    rep.opts.workload,
		"size":        sizeName(rep.opts.tiny),
		"seed":        rep.opts.seed,
		"trace":       rep.opts.trace,
		"seconds":     rep.opts.seconds,
		"host":        rep.host,
		"result":      rep.result,
		"unit_errors": rep.unitErrors,
		"iterations":  iters,
	}
	if err := writeJSONFile(filepath.Join(rep.opts.buildDir, "results", stem+".json"), doc); err != nil {
		return err
	}
	return writeJSONFile(filepath.Join(rep.opts.buildDir, "spans", stem+".json"), spans)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// print writes the human-readable summary, then the result as the last
// line.
func (rep *report) print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	host, _ := json.Marshal(rep.host)
	fmt.Fprintf(bw, "workload %s seed %d size %s trace %t: %d untraced + %d traced iterations\n",
		rep.opts.workload, rep.opts.seed, sizeName(rep.opts.tiny), rep.opts.trace, len(rep.plain), len(rep.traced))
	fmt.Fprintf(bw, "host %s\n", host)
	for _, e := range rep.unitErrors {
		fmt.Fprintf(bw, "FAIL %s\n", e)
	}
	names := make([]string, 0, len(rep.result.Metrics))
	for n := range rep.result.Metrics {
		names = append(names, n)
	}
	if !rep.opts.trace {
		names = names[:0]
		for _, d := range endToEnd {
			names = append(names, d.name)
		}
	} else {
		sort.Strings(names)
	}
	for _, n := range names {
		m := rep.result.Metrics[n]
		fmt.Fprintf(bw, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	r := rep.result
	fmt.Fprintf(bw, "%-32s %14.6g share (%d of %d units failed)\n", "error_rate", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	if err := writeJSONLine(bw, r); err != nil {
		return err
	}
	return bw.Flush()
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// recordReferences runs one untraced iteration of every workload, size
// and held-out seed, and writes their unit digests to path.
func recordReferences(buildDir, path string) error {
	refs := references{}
	for _, w := range workloads {
		for _, tiny := range []bool{false, true} {
			for _, seed := range heldOutSeeds {
				o := options{workload: w.name, seed: seed, tiny: tiny, buildDir: buildDir}
				it, err := spawnIteration(context.Background(), o, false, 0)
				if err != nil {
					return err
				}
				var digests []string
				for _, u := range it.Units {
					if u.Err != "" {
						return fmt.Errorf("%s %s: %s", w.name, u.ID, u.Err)
					}
					digests = append(digests, u.Digest)
				}
				refs.set(w.name, tiny, seed, digests)
				fmt.Fprintf(os.Stderr, "recorded %s %s seed %d: %d units\n", w.name, sizeName(tiny), seed, len(digests))
			}
		}
	}
	return writeJSONFile(path, refs)
}
