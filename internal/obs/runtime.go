package obs

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
)

// Go runtime telemetry: goroutine count, heap occupancy and a GC pause
// histogram, collected at scrape time (Snapshot / WriteJSON /
// WritePrometheus) rather than continuously — reading MemStats costs a
// stop-the-world of microseconds, far too much for hot paths but
// irrelevant at scrape frequency. The default registry installs the
// collector at package init so every process exposing /v1/metrics or
// /metrics carries the runtime series with zero setup.

// GCPauseBuckets are the GC pause histogram bounds: 10µs to 100ms.
var GCPauseBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,
}

// runtimeCollector feeds the go_* series of one registry.
type runtimeCollector struct {
	mu        sync.Mutex
	lastNumGC uint32
}

// collect updates the registry's runtime gauges and drains new GC
// pauses (since the previous scrape) into the pause histogram.
func (rc *runtimeCollector) collect(r *Registry) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Gauge("go_goroutines").Set(float64(runtime.NumGoroutine()))
	r.Gauge("go_memstats_heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	r.Gauge("go_memstats_heap_sys_bytes").Set(float64(ms.HeapSys))
	r.Gauge("go_memstats_heap_objects").Set(float64(ms.HeapObjects))
	r.Gauge("go_memstats_next_gc_bytes").Set(float64(ms.NextGC))
	r.Gauge("go_gc_cpu_fraction").Set(ms.GCCPUFraction)
	r.Gauge("go_gc_percent").Set(float64(GCPercent()))

	rc.mu.Lock()
	defer rc.mu.Unlock()
	last := rc.lastNumGC
	if gc := r.Counter("go_gc_cycles_total"); ms.NumGC >= last {
		gc.Add(int64(ms.NumGC - last))
	}
	// PauseNs is a 256-entry ring of recent pause durations; replay only
	// the cycles that finished since the last scrape.
	pauses := r.Histogram("go_gc_pause_seconds")
	n := ms.NumGC - last
	if n > uint32(len(ms.PauseNs)) {
		n = uint32(len(ms.PauseNs))
	}
	for i := uint32(0); i < n; i++ {
		cycle := ms.NumGC - i
		pauses.Observe(float64(ms.PauseNs[(cycle+255)%256]) / 1e9)
	}
	rc.lastNumGC = ms.NumGC
}

// EnableRuntimeMetrics installs the Go runtime collector on the
// registry (goroutines, heap gauges, the GC percent, GC cycle counter
// and pause histogram, all prefixed go_). The default registry has it installed
// already; call this only for private registries.
func EnableRuntimeMetrics(r *Registry) {
	rc := &runtimeCollector{}
	// Seed lastNumGC so the first scrape reports only pauses from the
	// process's recent history, not an unbounded replay.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.NumGC > 256 {
		rc.lastNumGC = ms.NumGC - 256
	}
	// The pause histogram needs GC-scale buckets, not request-latency
	// ones; create it before a scrape can default it.
	r.HistogramBuckets("go_gc_pause_seconds", GCPauseBuckets)
	r.RegisterCollector(rc.collect)
}

func init() { EnableRuntimeMetrics(Default) }

// HeapLiveMB returns the heap the most recent GC cycle marked live, in
// MB (runtime/metrics /gc/heap/live:bytes): what the process holds,
// without the garbage its GC goal lets pile up between cycles, and
// without the stop-the-world of ReadMemStats.
func HeapLiveMB() uint64 { return readUint("/gc/heap/live:bytes") >> 20 }

// HeapGoalMB returns the heap size at which the next GC cycle starts, in
// MB (/gc/heap/goal:bytes).
func HeapGoalMB() uint64 { return readUint("/gc/heap/goal:bytes") >> 20 }

// GCCycles returns the GC cycles the process has completed
// (/gc/cycles/total:gc-cycles), forced ones included.
func GCCycles() uint64 { return readUint("/gc/cycles/total:gc-cycles") }

// GCPercent returns the GC percent in force (/gc/gogc:percent): GOGC, or
// what debug.SetGCPercent last set; -1 when the GC is off.
func GCPercent() int { return int(int64(readUint("/gc/gogc:percent"))) }

// ProcStatusKB returns field ("VmHWM", "VmRSS", ...) of the Linux
// process status file at path (/proc/self/status, /proc/<pid>/status),
// in kB, and false where the file or the field is absent.
func ProcStatusKB(path, field string) (uint64, bool) {
	status, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// PaceStaticHeap sets the GC for a process whose heap is almost all data
// built at setup and kept for good — a coordinator's table and view, a
// worker's shards. At the default GOGC 100 the GC lets such a heap
// double before its next cycle, so peak RSS is twice what the process
// holds. Call it at the end of setup, right after the forced collection
// (debug.FreeOSMemory) that leaves the live heap at what the process
// serves from: it sets the GC percent to staticHeapPercent of that live
// heap, so the goal becomes live + max(floor, 10 %), or GOGC 100's
// 2 × live when that is smaller. floor is the garbage worth letting the
// serving loop pile up between cycles, which the caller measures: the
// more it allocates per request, the more CPU a small floor costs in
// collections. An operator's GOGC or GOMEMLIMIT in the environment wins:
// then the GC is left as the operator set it.
func PaceStaticHeap(floor uint64) {
	if os.Getenv("GOGC") != "" || os.Getenv("GOMEMLIMIT") != "" {
		return
	}
	debug.SetGCPercent(staticHeapPercent(readUint("/gc/heap/live:bytes"), floor))
}

// staticHeapPercent is the GC percent whose goal over a live heap of
// live bytes is live + floor: ⌈100·floor / live⌉, clamped to [10, 100]
// — GOGC 100 up to floor live, a 10 % allowance from 10·floor on.
func staticHeapPercent(live, floor uint64) int {
	if live == 0 {
		return 100
	}
	return int(min(max((100*floor+live-1)/live, 10), 100))
}
