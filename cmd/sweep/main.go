// Command sweep orchestrates experiment grids: it expands a declarative
// sweep specification (protocols × node degrees × failure models) into
// independent cells and executes them on a worker pool with a
// content-addressed result cache and a checkpoint journal. Re-running the
// same sweep serves unchanged cells from the cache; an interrupted sweep
// (Ctrl-C, crash) resumes from its journal and re-executes only the
// unfinished cells.
//
// Usage:
//
//	sweep [-spec spec.json] [-protocols rip,dbf,bgp,bgp3] [-degrees 3-10]
//	      [-topos "ba:n=10000,m=2;fattree:k=8"] [-trials N] [-seed S]
//	      [-scenarios "fail link 3-7 @400s|churn links rate=0.1/s @450s..600s"]
//	      [-metrics] [-out DIR] [-cache DIR] [-workers N]
//	      [-force] [-plan] [-q] [-cpuprofile FILE] [-memprofile FILE]
//
// Outputs, written atomically under -out: summary.{txt,csv} (the per-cell
// headline metrics) and manifest.json (spec, module version, per-cell keys,
// seeds, wall times and cache provenance).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"routeconv/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		specPath      = fs.String("spec", "", "JSON sweep specification (overrides the grid flags)")
		protocolsFlag = fs.String("protocols", "rip,dbf,bgp,bgp3", "comma-separated protocols")
		degreesFlag   = fs.String("degrees", "3-10", "node degrees, e.g. 3-16 or 3,4,5,6 (\"\" with -topos for a topo-only sweep)")
		toposFlag     = fs.String("topos", "", "semicolon-separated topology specs, e.g. ba:n=10000,m=2;fattree:k=8")
		scenariosFlag = fs.String("scenarios", "", "|-separated scenario scripts swept as failure modes (scripts use ';' internally; see SCENARIOS.md)")
		trials        = fs.Int("trials", 20, "trials per cell (paper: 100)")
		seed          = fs.Int64("seed", 1, "base random seed")
		flowsFlag     = fs.String("flows", "", "flow counts as an extra axis, e.g. 1,100,10000 (default: the base config's single flow)")
		mode          = fs.String("mode", "", "background-flow traffic engine for every cell: packet, fluid, hybrid")
		outDir        = fs.String("out", filepath.Join("results", "sweep"), "output directory (summary, manifest, journal)")
		cacheDir      = fs.String("cache", "", "result cache directory (default OUT/cache; \"off\" disables)")
		workers       = fs.Int("workers", 0, "concurrent cells (default GOMAXPROCS)")
		force         = fs.Bool("force", false, "re-execute every cell, ignoring cache and journal")
		metrics       = fs.Bool("metrics", false, "record obs counters per cell into manifest.json (changes cache keys)")
		plan          = fs.Bool("plan", false, "print the expanded cell plan and exit without running")
		quiet         = fs.Bool("q", false, "suppress progress output")
		cpuProfile    = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile    = fs.String("memprofile", "", "write a heap profile to this file after the sweep")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sweep: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: memprofile:", err)
			}
		}()
	}

	var spec sweep.Spec
	if *specPath != "" {
		s, err := sweep.LoadSpec(*specPath)
		if err != nil {
			return err
		}
		spec = s
	} else {
		var degrees []int
		if *degreesFlag != "" {
			d, err := sweep.ParseDegrees(*degreesFlag)
			if err != nil {
				return err
			}
			degrees = d
		}
		var topos []string
		if *toposFlag != "" {
			for _, t := range strings.Split(*toposFlag, ";") {
				if t = strings.TrimSpace(t); t != "" {
					topos = append(topos, t)
				}
			}
		}
		spec = sweep.Spec{
			Protocols: strings.Split(*protocolsFlag, ","),
			Degrees:   degrees,
			Topos:     topos,
			Trials:    *trials,
			Seed:      *seed,
		}
	}
	if *scenariosFlag != "" {
		for _, sc := range strings.Split(*scenariosFlag, "|") {
			if sc = strings.TrimSpace(sc); sc != "" {
				spec.Scenarios = append(spec.Scenarios, sc)
			}
		}
	}
	if *flowsFlag != "" {
		// Flow counts share the degree-list grammar (lists and ranges).
		flows, err := sweep.ParseDegrees(*flowsFlag)
		if err != nil {
			return fmt.Errorf("bad -flows: %w", err)
		}
		spec.Flows = flows
	}
	if *mode != "" {
		spec.Mode = *mode
	}
	if *metrics {
		spec.Metrics = true
	}

	if *plan {
		cells, err := spec.Expand()
		if err != nil {
			return err
		}
		for _, c := range cells {
			fmt.Printf("%-18s trials=%-4d seed=%-4d key=%s\n", c.ID(), c.Config.Trials, c.Config.Seed, c.Key[:16])
		}
		fmt.Printf("%d cells\n", len(cells))
		return nil
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	cd := *cacheDir
	switch cd {
	case "":
		cd = filepath.Join(*outDir, "cache")
	case "off":
		cd = ""
	}
	opts := sweep.Options{
		CacheDir:     cd,
		JournalPath:  filepath.Join(*outDir, "journal.jsonl"),
		ManifestPath: filepath.Join(*outDir, "manifest.json"),
		Workers:      *workers,
		Force:        *force,
	}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	out, err := sweep.Run(ctx, spec, opts)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("interrupted — completed cells are journaled; re-run to resume: %w", err)
		}
		return err
	}

	sr := out.SweepResult()
	table := sr.SummaryTable()
	var txt, csv bytes.Buffer
	if err := table.WriteText(&txt); err != nil {
		return err
	}
	if err := table.WriteCSV(&csv); err != nil {
		return err
	}
	if err := sweep.WriteFileAtomic(filepath.Join(*outDir, "summary.txt"), txt.Bytes(), 0o644); err != nil {
		return err
	}
	if err := sweep.WriteFileAtomic(filepath.Join(*outDir, "summary.csv"), csv.Bytes(), 0o644); err != nil {
		return err
	}
	if _, err := os.Stdout.Write(txt.Bytes()); err != nil {
		return err
	}
	fmt.Printf("\n%d cells (%d simulated, %d cached) in %v\nwrote %s and summary.{txt,csv}\n",
		len(out.Cells), out.Executed, out.CacheHits, out.Wall.Round(1e6),
		filepath.Join(*outDir, "manifest.json"))
	return nil
}
