package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runtimeSnap is one reading of the Go runtime's counters and of the
// process's CPU time.
type runtimeSnap struct {
	GCCycles   uint64  `json:"gc_cycles"`
	AllocBytes uint64  `json:"alloc_bytes"`
	AllocObjs  uint64  `json:"alloc_objects"`
	CPUS       float64 `json:"cpu_s"`  // process user + system CPU time, from getrusage
	WallS      float64 `json:"wall_s"` // since the process started
	Goroutines uint64  `json:"goroutines"`
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/goroutines:goroutines",
}

var processStart = time.Now()

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{
		GCCycles:   s[0].Value.Uint64(),
		AllocBytes: s[1].Value.Uint64(),
		AllocObjs:  s[2].Value.Uint64(),
		CPUS:       processCPU(),
		WallS:      time.Since(processStart).Seconds(),
		Goroutines: s[3].Value.Uint64(),
	}
}

// processCPU is the CPU time the process has used, user and system, in
// seconds. The runtime's own /cpu/classes counters are not used: they
// advance only when a garbage collection ends, so a stretch with no
// collection in it would read as idle.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// delta is the change of the counters from a to b (goroutines as read at
// b).
func (a runtimeSnap) delta(b runtimeSnap) runtimeSnap {
	return runtimeSnap{
		GCCycles:   b.GCCycles - a.GCCycles,
		AllocBytes: b.AllocBytes - a.AllocBytes,
		AllocObjs:  b.AllocObjs - a.AllocObjs,
		CPUS:       b.CPUS - a.CPUS,
		WallS:      b.WallS - a.WallS,
		Goroutines: b.Goroutines,
	}
}

// add sums two deltas.
func (a runtimeSnap) add(b runtimeSnap) runtimeSnap {
	return runtimeSnap{
		GCCycles:   a.GCCycles + b.GCCycles,
		AllocBytes: a.AllocBytes + b.AllocBytes,
		AllocObjs:  a.AllocObjs + b.AllocObjs,
		CPUS:       a.CPUS + b.CPUS,
		WallS:      a.WallS + b.WallS,
		Goroutines: b.Goroutines,
	}
}

// cpuUtil is the share of the process's CPU capacity (GOMAXPROCS × wall)
// that it used.
func (a runtimeSnap) cpuUtil() float64 {
	if a.WallS <= 0 {
		return 0
	}
	return a.CPUS / (float64(runtime.GOMAXPROCS(0)) * a.WallS)
}

// heapSampler records the highest heap size seen while it runs: the
// bytes of heap objects, live or dead but not yet swept. It moves with
// every allocation and every sweep, unlike the live heap the last
// garbage collection found, which changes only at a collection.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64 // highest heap size since the last mark
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// mark returns the peak since the previous mark, in bytes, and starts a
// new one.
func (h *heapSampler) mark() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return p
}

// finish stops the sampler and waits for it to exit.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}

// flushDisk writes the dirty pages of the filesystems back to disk and
// waits until they are written. A run calls it before each timed phase,
// so that phase does not also pay for writing back what an earlier phase,
// or an earlier run, wrote: a file the store creates can take ten times
// as long while the disk is busy with that.
func flushDisk() { syscall.Sync() }

func numCPU() int { return runtime.NumCPU() }

// hostRecord describes where a run ran.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GitSHA     string `json:"git_sha"`
	Seed       uint64 `json:"seed"`
}

func describeHost(seed uint64) hostRecord {
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		GitSHA:     gitSHA(),
		Seed:       seed,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is the commit the binary was built from, when the build saw a
// git checkout ("unknown" otherwise).
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
