package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"routeconv/internal/core"
	"routeconv/internal/sweep"
	"routeconv/internal/topology"
)

// setupReps is how many times an iteration repeats its set-up; the
// reported set-up time is the median, which keeps a sub-millisecond
// measurement steady.
const setupReps = 5

// serialSeedStride separates the seeds of a serial workload's trials.
const serialSeedStride = 1_000_003

// unit is one independently checked piece of a workload's output: a sweep
// cell or a single trial.
type unit struct {
	ID     string `json:"id"`
	Digest string `json:"digest"`
	// Err is non-empty when the unit failed inside the iteration (an error
	// from the program, a cold/warm cache mismatch, a broken conservation
	// identity).
	Err string `json:"err,omitempty"`
}

// iteration is what one child process reports: one set-up plus one run of
// the workload batch.
type iteration struct {
	Traced    bool               `json:"traced"`
	SetupS    []float64          `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	AllocMB   float64            `json:"alloc_mb"`
	AllocsM   float64            `json:"allocs_m"`
	Units     []unit             `json:"units"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// runIteration executes one set-up and one batch of w in this process,
// untraced or traced, using dir for the sweep cache and the CPU profile.
func runIteration(ctx context.Context, w *workload, seed int64, tiny, traced bool, dir string) (*iteration, error) {
	it := &iteration{Traced: traced, Layers: map[string]float64{}}
	rec := &spanRecorder{}
	name := "iteration"
	if traced {
		name += " traced"
	}
	root := rec.start(name, 0)
	defer func() {
		rec.end(root)
		it.Spans = rec.spans
	}()

	var prof *cpuProfile
	if traced {
		var err error
		if prof, err = startCPUProfile(filepath.Join(dir, "cpu.pprof")); err != nil {
			return nil, err
		}
		defer prof.stop() // only reached on error paths; stop is idempotent
	}

	var err error
	if w.sweep != nil {
		err = runSweep(ctx, w, seed, tiny, traced, dir, it, rec, root)
	} else {
		err = runTrials(w, seed, tiny, traced, it, rec, root)
	}
	if err != nil {
		return nil, err
	}
	it.PeakRSSMB = peakRSSMB()
	if traced {
		shares, err := prof.finish()
		if err != nil {
			return nil, err
		}
		for b, v := range shares {
			it.Layers[b] = v
		}
	}
	return it, nil
}

// runSweep is the sweep workload's iteration. Untraced, it times a cold
// sweep.Run into an empty cache and then re-runs it warm from the same
// cache, checking that every cell is a hit with identical results. Traced,
// it runs each expanded cell through core.Run with the timing protocol
// decorator and the obs counters on (a Factory override makes a config
// uncacheable, so the sweep layer cannot run it).
func runSweep(ctx context.Context, w *workload, seed int64, tiny, traced bool, dir string, it *iteration, rec *spanRecorder, root int) error {
	cacheDir := filepath.Join(dir, "cache")
	var (
		spec  sweep.Spec
		cells []sweep.Cell
	)
	var buildS []float64
	mesh := core.DefaultConfig()
	for i := 0; i < setupReps; i++ {
		s := rec.start("setup", root)
		t0 := time.Now()
		spec = w.sweep(seed, tiny)
		var err error
		if cells, err = spec.Expand(); err != nil {
			return err
		}
		if _, err := sweep.OpenCache(cacheDir); err != nil {
			return err
		}
		it.SetupS = append(it.SetupS, time.Since(t0).Seconds())
		rec.end(s)
		t1 := time.Now()
		for _, d := range spec.Degrees {
			if _, err := topology.NewMesh(mesh.Rows, mesh.Cols, d); err != nil {
				return err
			}
		}
		buildS = append(buildS, time.Since(t1).Seconds())
	}
	it.Layers["topology.build_s"] = median(buildS)
	it.Layers["sweep.cells"] = float64(len(cells))

	if traced {
		tr := startTracer()
		run := rec.start("run", root)
		before := readRuntime()
		t0 := time.Now()
		for _, cell := range cells {
			cfg := cell.Config
			tr.instrument(&cfg)
			cs := rec.start("cell "+cell.ID(), run)
			res, err := core.RunContext(ctx, cfg)
			rec.end(cs)
			tr.probe.flush()
			u := unit{ID: cell.ID()}
			if err != nil {
				u.Err = err.Error()
			} else {
				u.Digest = cellDigest(res.Trials)
				u.Err = tr.tally.add(res.Trials)
			}
			it.Units = append(it.Units, u)
		}
		it.WallS = time.Since(t0).Seconds()
		rec.end(run)
		after := readRuntime()
		it.setAllocs(before, after)
		tr.finish(it.Layers, after.sub(before), it.WallS)
		return nil
	}

	run := rec.start("run", root)
	before := readRuntime()
	cold, err := sweep.Run(ctx, spec, sweep.Options{CacheDir: cacheDir})
	after := readRuntime()
	rec.end(run)
	if err != nil {
		return err
	}
	it.WallS = cold.Wall.Seconds()
	it.setAllocs(before, after)
	cellWalls := make([]float64, len(cold.Cells))
	for i, co := range cold.Cells {
		cellWalls[i] = co.Wall.Seconds()
		u := unit{ID: co.Cell.ID(), Digest: cellDigest(co.Result.Trials)}
		if co.Cached {
			u.Err = "cold sweep served the cell from cache"
		}
		it.Units = append(it.Units, u)
	}
	it.Layers["sweep.cell_p50_ratio"] = median(cellWalls) / it.WallS

	ws := rec.start("warm", root)
	warm, err := sweep.Run(ctx, spec, sweep.Options{CacheDir: cacheDir})
	rec.end(ws)
	if err != nil {
		return err
	}
	it.Layers["sweep.warm_ratio"] = warm.Wall.Seconds() / it.WallS
	it.Layers["sweep.cache_hit_ratio"] = float64(warm.CacheHits) / float64(len(warm.Cells))
	for i, co := range warm.Cells {
		u := &it.Units[i]
		switch {
		case !co.Cached:
			u.Err = join(u.Err, "warm sweep re-simulated the cell")
		case cellDigest(co.Result.Trials) != u.Digest:
			u.Err = join(u.Err, "warm sweep result differs from the cold run")
		}
	}
	return nil
}

// runTrials is the single-config workload's iteration: set-up resolves the
// topology and scenario and validates the config, the run is one core.Run.
func runTrials(w *workload, seed int64, tiny, traced bool, it *iteration, rec *spanRecorder, root int) error {
	var cfg core.Config
	var buildS []float64
	for i := 0; i < setupReps; i++ {
		s := rec.start("setup", root)
		t0 := time.Now()
		cfg = w.trial(seed, tiny)
		if err := cfg.ResolveTopology(); err != nil {
			return err
		}
		buildS = append(buildS, time.Since(t0).Seconds())
		if w.script != nil {
			cfg.Scenario = w.script(cfg.Topology, tiny)
		}
		if err := cfg.ResolveScenario(); err != nil {
			return err
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		it.SetupS = append(it.SetupS, time.Since(t0).Seconds())
		rec.end(s)
	}
	it.Layers["topology.build_s"] = median(buildS)

	var tr *tracer
	if traced {
		tr = startTracer()
		tr.instrument(&cfg)
	}
	// A serial workload runs its trials one after another, each as its own
	// single-trial experiment with a derived seed, so each runs on one core.
	var trials []core.TrialResult
	run := rec.start("run", root)
	before := readRuntime()
	t0 := time.Now()
	var err error
	if w.serial > 0 {
		for i := 0; i < w.serial && err == nil; i++ {
			if i > 0 {
				// Collect the previous trial's garbage, so that every trial
				// starts from the same heap and the peak RSS is one trial's.
				runtime.GC()
			}
			c := cfg
			c.Trials = 1
			c.Seed = seed + int64(i)*serialSeedStride
			var res *core.Result
			if res, err = core.Run(c); err == nil {
				trials = append(trials, res.Trials...)
			}
			if tr != nil {
				tr.probe.flush() // release the finished trial's simulator
			}
		}
	} else {
		var res *core.Result
		if res, err = core.Run(cfg); err == nil {
			trials = res.Trials
		}
	}
	it.WallS = time.Since(t0).Seconds()
	after := readRuntime()
	rec.end(run)
	if err != nil {
		return err
	}
	it.setAllocs(before, after)
	for i, trial := range trials {
		u := unit{ID: fmt.Sprintf("trial%d", i), Digest: trialDigest(trial)}
		if tr != nil {
			u.Err = tr.tally.add(trials[i : i+1])
		}
		it.Units = append(it.Units, u)
	}
	if tr != nil {
		tr.finish(it.Layers, after.sub(before), it.WallS)
	}
	return nil
}

// tracer holds a traced iteration's instruments: the protocol probe, the
// heap sampler and the counter tally.
type tracer struct {
	probe *probe
	heap  *heapSampler
	tally trialTally
}

func startTracer() *tracer {
	return &tracer{probe: newProbe(), heap: startHeapSampler(10 * time.Millisecond)}
}

// instrument decorates cfg's protocol and turns on the obs counters.
func (t *tracer) instrument(cfg *core.Config) {
	cfg.Factory = t.probe.wrap(cfg)
	cfg.Metrics = true
}

// finish stops the instruments and reports the layer metrics of a run
// whose runtime counters moved by rt over wall seconds.
func (t *tracer) finish(m map[string]float64, rt runtimeSample, wall float64) {
	m["runtime.heap_peak_mb"] = t.heap.stop()
	t.probe.flush()
	t.probe.layers(m)
	t.tally.layers(m, rt, wall)
}

func (it *iteration) setAllocs(before, after runtimeSample) {
	d := after.sub(before)
	it.AllocMB = d.allocBytes / 1e6
	it.AllocsM = d.allocObjects / 1e6
}

func join(a, b string) string {
	if a == "" {
		return b
	}
	return a + "; " + b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// childMain is the entry point of a child process: it runs one iteration
// and prints it as a single JSON line.
func childMain(w *workload, seed int64, tiny, traced bool, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	it, err := runIteration(context.Background(), w, seed, tiny, traced, dir)
	if err != nil {
		return err
	}
	return writeJSONLine(os.Stdout, it)
}
