// Command convsim runs a single convergence experiment and prints its
// measurements: drops by cause, convergence times, and the per-second
// throughput/delay series around the failure.
//
// Usage:
//
//	convsim [-protocol dbf] [-degree 4] [-rows 7] [-cols 7] [-trials 10]
//	        [-topo ba:n=10000,m=2] [-senderstart 390s] [-failat 400s]
//	        [-end 800s] [-seed 1] [-flows 1] [-rate 20]
//	        [-scenario "fail link 3-7 @400s; loss link 1-2 p=0.01 @410s"]
//	        [-timeline out.ndjson] [-cpuprofile FILE] [-memprofile FILE]
//
// With -scenario, the default single-link failure schedule is replaced by
// the given disturbance script (grammar and semantics: SCENARIOS.md).
// With -timeline, trial 0 is replayed with the convergence timeline
// attached and the records are written as NDJSON (schema: OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"routeconv"
	"routeconv/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "convsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("convsim", flag.ContinueOnError)
	ef := core.ExperimentFlags{MeshFlags: core.DefaultMeshFlags(), Protocol: "dbf", Seed: 1}
	ef.Register(fs)
	var (
		trials      = fs.Int("trials", 10, "independent trials")
		flows       = fs.Int("flows", 1, "concurrent sender/receiver pairs")
		rate        = fs.Int("rate", 20, "packets per second per flow")
		senderStart = fs.Duration("senderstart", 0, "override when the probe flow starts (default: paper's 390s)")
		failAt      = fs.Duration("failat", 0, "override the failure time (default: paper's 400s)")
		end         = fs.Duration("end", 0, "override the simulation horizon (default: paper's 800s)")
		ecmp        = fs.Bool("ecmp", false, "install equal-cost multipath sets (dbf and ls)")
		detail      = fs.Bool("detail", false, "print per-trial detail")
		timeline    = fs.String("timeline", "", "write trial 0's convergence timeline to this NDJSON file")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this file after the run")
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
				fmt.Fprintln(os.Stderr, "convsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "convsim: memprofile:", err)
			}
		}()
	}
	cfg, err := ef.Config()
	if err != nil {
		return err
	}
	cfg.Trials = *trials
	cfg.Flows = *flows
	cfg.PacketInterval = time.Second / time.Duration(*rate)
	if *senderStart > 0 {
		cfg.SenderStart = *senderStart
	}
	if *failAt > 0 {
		cfg.FailAt = *failAt
	}
	if *end > 0 {
		cfg.End = *end
	}
	if *ecmp {
		cfg.Vector.ECMP = true
		cfg.LS.ECMP = true
	}

	res, err := routeconv.Run(cfg)
	if err != nil {
		return err
	}

	if cfg.Topo != "" {
		fmt.Printf("protocol=%s topo=%s trials=%d flows=%d rate=%d pps\n",
			cfg.Protocol, cfg.Topo, *trials, *flows, *rate)
	} else {
		fmt.Printf("protocol=%s degree=%d mesh=%dx%d trials=%d flows=%d rate=%d pps\n",
			cfg.Protocol, ef.Degree, ef.Rows, ef.Cols, *trials, *flows, *rate)
	}
	fmt.Printf("failure at %v on the flow's forwarding path; run ends at %v\n\n", cfg.FailAt, cfg.End)
	fmt.Printf("warmed-up trials:            %d/%d\n", res.WarmedUpTrials, *trials)
	fmt.Printf("mean drops (no route):       %.1f\n", res.MeanNoRouteDrops)
	fmt.Printf("mean drops (TTL expired):    %.1f\n", res.MeanTTLDrops)
	fmt.Printf("mean drops (onto dead link): %.1f\n", res.MeanLinkDrops)
	fmt.Printf("mean drops (queue overflow): %.1f\n", res.MeanQueueDrops)
	if res.MeanRandomLoss > 0 {
		fmt.Printf("mean drops (random loss):    %.1f\n", res.MeanRandomLoss)
	}
	fmt.Printf("forwarding convergence:      %.2f s\n", res.MeanFwdConv)
	fmt.Printf("routing convergence:         %.2f s\n", res.MeanRoutingConv)
	fmt.Printf("transient forwarding paths:  %.1f\n", res.MeanTransientPath)
	fmt.Printf("delivery ratio:              %.4f\n", res.DeliveryRatio)

	if *detail {
		fmt.Println()
		for i, tr := range res.Trials {
			fmt.Printf("trial %2d: sender@%d receiver@%d failed=%d-%d warmed=%v drops(noroute=%d ttl=%d link=%d queue=%d) fwd=%.2fs routing=%.2fs\n",
				i, tr.SenderRouter, tr.ReceiverRouter, tr.FailedLink.A, tr.FailedLink.B, tr.WarmedUp,
				tr.NoRouteDrops, tr.TTLDrops, tr.LinkFailureDrops, tr.QueueDrops,
				tr.ForwardingConvergence.Seconds(), tr.RoutingConvergence.Seconds())
		}
	}

	// Print the throughput/delay window around the failure.
	failBin := int((cfg.FailAt - cfg.SenderStart) / time.Second)
	lo, hi := failBin-5, failBin+45
	if lo < 0 {
		lo = 0
	}
	if hi > len(res.MeanThroughput) {
		hi = len(res.MeanThroughput)
	}
	fmt.Printf("\ninstantaneous throughput and delay (t in seconds since sender start; failure at t=%d):\n", failBin)
	fmt.Printf("%6s  %12s  %10s\n", "t_s", "pps", "delay_s")
	for bin := lo; bin < hi; bin++ {
		delay := "-"
		if d := res.MeanDelay[bin]; d == d { // not NaN
			delay = fmt.Sprintf("%.4f", d)
		}
		fmt.Printf("%6d  %12.1f  %10s\n", bin, res.MeanThroughput[bin], delay)
	}

	if *timeline != "" {
		if err := writeTimeline(cfg, *timeline); err != nil {
			return err
		}
		fmt.Printf("\nwrote trial 0 convergence timeline to %s\n", *timeline)
	}
	return nil
}

// writeTimeline replays trial 0 with the convergence timeline attached and
// writes the records as NDJSON.
func writeTimeline(cfg routeconv.Config, path string) error {
	tl := routeconv.NewTimeline()
	if _, err := routeconv.TraceTimeline(cfg, 0, tl); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
