package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runtimeSample is a point-in-time reading of the process's cumulative
// allocation, GC and CPU counters.
type runtimeSample struct {
	allocBytes, allocObjects float64
	gcCycles                 float64
	cpuS                     float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeSample{
		allocBytes:   float64(samples[0].Value.Uint64()),
		allocObjects: float64(samples[1].Value.Uint64()),
		gcCycles:     float64(samples[2].Value.Uint64()),
		cpuS:         cpu.Seconds(),
	}
}

func (s runtimeSample) sub(o runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes:   s.allocBytes - o.allocBytes,
		allocObjects: s.allocObjects - o.allocObjects,
		gcCycles:     s.gcCycles - o.gcCycles,
		cpuS:         s.cpuS - o.cpuS,
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MB (10^6 bytes), or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	kb := procStatusKB("VmHWM:")
	return kb * 1024 / 1e6
}

func procStatusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				v, _ := strconv.ParseFloat(fields[0], 64)
				return v
			}
		}
	}
	return 0
}

// heapSampler polls the live heap size until stopped and keeps the
// maximum, giving the run's peak heap independent of RSS.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling goroutine, waits for it, and returns the peak in
// MB (10^6 bytes).
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	return float64(h.peak) / 1e6
}

// hostInfo is the fingerprint recorded beside every result.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	MemTotalMB int    `json:"mem_total_mb"`
	GOGC       string `json:"gogc"`
	GOMEMLIMIT string `json:"gomemlimit"`
}

func readHost() hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       envOr("GOGC", "100 (default)"),
		GOMEMLIMIT: envOr("GOMEMLIMIT", "off (default)"),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/meminfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "MemTotal:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					kb, _ := strconv.Atoi(f[0])
					h.MemTotalMB = kb / 1024
				}
			}
		}
	}
	return h
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}
