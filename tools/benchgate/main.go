// Command benchgate compares Go benchmark output against a committed
// ns/op baseline and fails when any gated case regresses beyond the
// threshold or is missing from the run. It exists so the bench-smoke CI job catches performance
// regressions in the convergence hot paths, not just crashes.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkConvergence -benchtime 1x ./... | tee bench.txt
//	go run ./tools/benchgate -bench bench.txt                  # gate
//	go run ./tools/benchgate -bench bench.txt -update          # refresh baseline
//
// Benchmark names are keyed as "pkg:Name" with the trailing -GOMAXPROCS
// suffix stripped, so runs from hosts with different core counts compare.
// Single-iteration ns/op on shared runners is noisy; the threshold is
// deliberately loose (default 1.25) and the baseline should be refreshed
// (with -update, on the machine of record) whenever an intentional
// performance change lands.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type baseline struct {
	Note      string             `json:"note"`
	Prefix    string             `json:"prefix"`
	Threshold float64            `json:"threshold"`
	Machine   map[string]string  `json:"machine"`
	Cases     map[string]float64 `json:"cases"` // key -> ns/op
}

func main() {
	var (
		benchPath = flag.String("bench", "", "benchmark output file (go test -bench ... output); required")
		basePath  = flag.String("baseline", "bench_baseline.json", "baseline JSON file")
		prefix    = flag.String("prefix", "BenchmarkConvergence", "gate benchmarks whose name starts with this")
		threshold = flag.Float64("threshold", 0, "fail when current/baseline exceeds this (0: use the baseline file's)")
		update    = flag.Bool("update", false, "rewrite the baseline from the bench output instead of gating")
	)
	flag.Parse()
	if *benchPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -bench is required")
		os.Exit(2)
	}
	cases, err := parseBench(*benchPath, *prefix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(cases) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no %s cases in %s\n", *prefix, *benchPath)
		os.Exit(2)
	}

	if *update {
		th := *threshold
		if th == 0 {
			th = 1.25
		}
		b := baseline{
			Note:      "ns/op floor for the bench-smoke regression gate; refresh with: go test -run '^$' -bench " + *prefix + " -benchtime 1x ./... > bench.txt && go run ./tools/benchgate -bench bench.txt -update",
			Prefix:    *prefix,
			Threshold: th,
			Machine:   machineInfo(),
			Cases:     cases,
		}
		out, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*basePath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %d cases to %s\n", len(cases), *basePath)
		return
	}

	raw, err := os.ReadFile(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", *basePath, err)
		os.Exit(2)
	}
	th := *threshold
	if th == 0 {
		th = base.Threshold
	}
	if th == 0 {
		th = 1.25
	}

	keys := make([]string, 0, len(cases))
	for k := range cases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	failed := 0
	for _, k := range keys {
		cur := cases[k]
		want, ok := base.Cases[k]
		if !ok {
			fmt.Printf("NEW   %-60s %14.0f ns/op (not in baseline; add with -update)\n", k, cur)
			continue
		}
		ratio := cur / want
		status := "ok   "
		if ratio > th {
			status = "FAIL "
			failed++
		}
		fmt.Printf("%s %-60s %14.0f ns/op  baseline %14.0f  ratio %.2f\n", status, k, cur, want, ratio)
	}
	// A gated case missing from the run fails the gate: deleting or
	// renaming a benchmark must not silently un-gate it. Retire a case by
	// removing it from the baseline (or refreshing with -update).
	var gone []string
	for k := range base.Cases {
		if _, ok := cases[k]; !ok {
			gone = append(gone, k)
		}
	}
	sort.Strings(gone)
	for _, k := range gone {
		fmt.Printf("GONE  %-60s (in baseline but not in this run)\n", k)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d case(s) regressed beyond %.2fx the baseline in %s\n", failed, th, *basePath)
	}
	if len(gone) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d baseline case(s) missing from %s\n", len(gone), *benchPath)
	}
	if failed > 0 || len(gone) > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d case(s) within %.2fx of baseline\n", len(cases), th)
}

// procsSuffix strips the -GOMAXPROCS suffix go test appends to benchmark
// names, so keys match across hosts with different core counts.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts "pkg:Name" -> ns/op from go test -bench output,
// keeping only names that start with prefix. Repeated cases (|-count or
// multiple files concatenated) keep their minimum — the least-noisy view
// of a 1x run.
func parseBench(path, prefix string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]float64)
	pkg := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "pkg: "); ok {
			pkg = rest
			continue
		}
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		// Name  iterations  value ns/op  [more pairs...]
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		key := pkg + ":" + procsSuffix.ReplaceAllString(fields[0], "")
		if old, ok := out[key]; !ok || ns < old {
			out[key] = ns
		}
	}
	return out, sc.Err()
}

// machineInfo records where the baseline was measured — ratios against it
// only mean much on comparable hardware.
func machineInfo() map[string]string {
	info := map[string]string{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"numcpu":     strconv.Itoa(runtime.NumCPU()),
	}
	if cpu, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(cpu), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				info["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return info
}
