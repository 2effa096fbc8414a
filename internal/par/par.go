// Package par is the parallel-execution kernel behind AIDE's hot paths:
// CART split search, grid-index scans and view index construction. It
// provides a bounded process-wide worker pool (sized from GOMAXPROCS,
// overridable with AIDE_WORKERS) plus chunked For/Map helpers whose
// results are merged in deterministic chunk order, so every caller
// produces output independent of the worker count.
//
// Design rules the package enforces:
//
//   - Determinism: work over [0,n) is split into contiguous chunks whose
//     boundaries depend only on (n, workers, minChunk); Map returns
//     per-chunk results in chunk order, so a sequential left-to-right
//     reduce is reproducible bit-for-bit at any worker count.
//   - Sequential escape hatch: workers == 1 (or a range too small to
//     chunk) runs entirely in the caller's goroutine — no channels, no
//     goroutines, identical to a plain loop.
//   - No deadlocks under saturation or nesting: the pool's queue is
//     bounded and submission never blocks (a full queue runs the chunk
//     inline in the submitting goroutine), and a caller waiting for its
//     outstanding chunks helps drain the pool's queue instead of
//     parking. A pool worker blocked inside a nested For therefore
//     keeps executing queued tasks, so kernels may be invoked from pool
//     workers — including For within a For chunk — without risk.
//   - Panic propagation: a panic in any chunk is captured and re-raised
//     in the caller after all chunks finish.
//   - Cooperative cancellation: ForCtx/MapCtx stop scheduling new chunks
//     once their context is cancelled (in-flight chunks finish, skipped
//     chunks never run) and return ctx.Err(); each abandoned call bumps
//     the aide_cancellations_total counter. Results are identical to the
//     ctx-free variants whenever the context is never cancelled.
//
// Utilization is reported through the internal/obs registry: a
// "par.workers" gauge (pool size), a "par.queue_depth" gauge sampled at
// submission (pool saturation), process-wide "par.tasks" /
// "par.inline_runs" counters, and per-kernel task counters
// ("par.kernel.<name>.tasks", "par.kernel.<name>.seq_runs").
package par

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/explore-by-example/aide/internal/obs"
)

var (
	obsWorkers    = obs.GetGauge("par.workers")
	obsQueueDepth = obs.GetGauge("par.queue_depth")
	obsTasks      = obs.GetCounter("par.tasks")
	obsInlineRuns = obs.GetCounter("par.inline_runs")

	// par_pool{state="queued"|"running"} is the labeled pool-occupancy
	// pair: queued is sampled at submission and drain, running is
	// maintained by the executors. Two atomics per chunk — chunks are
	// coarse, so this stays off the per-item hot path.
	obsPoolQueued  = obs.GetGaugeVec("par_pool", "state").With("queued")
	obsPoolRunning = obs.GetGaugeVec("par_pool", "state").With("running")
	// obsCancellations counts For/Map calls abandoned by context
	// cancellation — the process-wide signal that deadlines and client
	// disconnects actually stop parallel work.
	obsCancellations = obs.GetCounter("aide_cancellations_total")
)

// Workers returns the effective default worker count: the AIDE_WORKERS
// environment variable when set to a positive integer, else GOMAXPROCS.
// A worker count of 1 forces every kernel onto the sequential path.
func Workers() int { return defaultWorkers() }

var defaultWorkers = sync.OnceValue(func() int {
	if s := os.Getenv("AIDE_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
})

// Resolve maps a caller-facing worker knob to an effective count:
// values <= 0 mean "automatic" (Workers()), anything else is taken
// literally.
func Resolve(n int) int {
	if n <= 0 {
		return Workers()
	}
	return n
}

// DefaultMinParallelWork is the work-hint threshold below which ForWork
// and MapWork run sequentially in the caller's goroutine. "Work" is a
// caller-chosen proxy for total cost (typically items × a per-item cost
// factor); 8192 covers the regime where chunk scheduling and the
// help-drain wait cost more than the loop body itself — e.g. the
// per-dimension Gini sweeps at deep CART nodes, whose tiny index slices
// made the chunked path a net slowdown.
const DefaultMinParallelWork = 1 << 13

// MinParallelWork returns the effective sequential-below threshold for
// ForWork/MapWork: the AIDE_MIN_PARALLEL environment variable when set
// to a non-negative integer (0 disables the gate), else
// DefaultMinParallelWork.
func MinParallelWork() int { return minParallelWork() }

var minParallelWork = sync.OnceValue(func() int {
	if s := os.Getenv("AIDE_MIN_PARALLEL"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 0 {
			return n
		}
	}
	return DefaultMinParallelWork
})

// Kernel identifies one parallelized hot path; it carries the per-kernel
// obs counters so scheduling cost on the hot path stays two atomic adds.
type Kernel struct {
	name    string
	tasks   *obs.Counter // chunks dispatched to the pool
	seqRuns *obs.Counter // invocations that ran fully sequentially
}

// NewKernel registers (or reuses) the named kernel's counters. Call once
// at package init of the instrumented package.
func NewKernel(name string) *Kernel {
	return &Kernel{
		name:    name,
		tasks:   obs.GetCounter("par.kernel." + name + ".tasks"),
		seqRuns: obs.GetCounter("par.kernel." + name + ".seq_runs"),
	}
}

// ChunkCount returns the number of chunks For and Map will use for a
// range of n items at the given worker knob: at most Resolve(workers)
// chunks, and never so many that a chunk holds fewer than minChunk items
// (minChunk <= 0 is treated as 1). n <= 0 yields 0.
func ChunkCount(workers, n, minChunk int) int {
	if n <= 0 {
		return 0
	}
	if minChunk < 1 {
		minChunk = 1
	}
	c := Resolve(workers)
	if max := n / minChunk; c > max {
		c = max
	}
	if c < 1 {
		c = 1
	}
	return c
}

// chunkBounds returns the half-open [lo, hi) item range of chunk c out
// of chunks over n items: contiguous, near-equal, deterministic.
func chunkBounds(c, chunks, n int) (int, int) {
	base, rem := n/chunks, n%chunks
	lo := c*base + min(c, rem)
	hi := lo + base
	if c < rem {
		hi++
	}
	return lo, hi
}

// For runs fn over [0, n) split into ChunkCount(workers, n, minChunk)
// contiguous chunks. fn receives the dense chunk index (usable to pick a
// per-chunk scratch buffer — each index runs exactly once per call) and
// its half-open item range. With one chunk, fn runs in the caller's
// goroutine. A panic in any chunk is re-raised in the caller after all
// chunks complete.
func For(k *Kernel, workers, n, minChunk int, fn func(chunk, lo, hi int)) {
	_ = ForCtx(context.Background(), k, workers, n, minChunk, fn)
}

// ForCtx is For with cooperative cancellation: once ctx is cancelled no
// further chunks are scheduled (in-flight chunks run to completion, so
// fn never observes a torn chunk) and ForCtx returns ctx.Err(). A nil or
// never-cancelled ctx makes ForCtx identical to For — chunk boundaries,
// execution and results are bit-for-bit the same — so cancellation
// support costs nothing when unused. Chunks skipped by cancellation
// never run; callers must treat any partial effects of fn as garbage
// when an error is returned.
func ForCtx(ctx context.Context, k *Kernel, workers, n, minChunk int, fn func(chunk, lo, hi int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	chunks := ChunkCount(workers, n, minChunk)
	if chunks == 0 {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		obsCancellations.Inc()
		return err
	}
	if chunks == 1 {
		k.seqRuns.Inc()
		fn(0, 0, n)
		return nil
	}
	var pending atomic.Int32
	done := make(chan struct{})
	var panicMu sync.Mutex
	var panicVal any
	panicked := false
	pending.Store(int32(chunks))
	run := func(c, lo, hi int) {
		obsPoolRunning.Add(1)
		defer func() {
			obsPoolRunning.Add(-1)
			if r := recover(); r != nil {
				panicMu.Lock()
				if !panicked {
					panicked = true
					panicVal = r
				}
				panicMu.Unlock()
			}
			if pending.Add(-1) == 0 {
				close(done)
			}
		}()
		fn(c, lo, hi)
	}
	k.tasks.Add(int64(chunks))
	obsTasks.Add(int64(chunks))
	// The last chunk always runs in the caller: it saves one handoff and
	// guarantees progress even if every pool worker is busy. Cancellation
	// is checked once per chunk before scheduling — the "one chunk
	// boundary" latency bound on abandoning a scan.
	cancelled := false
	for c := 0; c < chunks-1; c++ {
		if ctx.Err() != nil {
			// Skip every not-yet-scheduled chunk (including the
			// caller-run last one); in-flight chunks drain below.
			if pending.Add(-int32(chunks-c)) == 0 {
				close(done)
			}
			cancelled = true
			break
		}
		lo, hi := chunkBounds(c, chunks, n)
		c := c
		if !pool.trySubmit(func() { run(c, lo, hi) }) {
			obsInlineRuns.Inc()
			run(c, lo, hi)
		}
	}
	if !cancelled {
		if ctx.Err() != nil {
			if pending.Add(-1) == 0 {
				close(done)
			}
			cancelled = true
		} else {
			lo, hi := chunkBounds(chunks-1, chunks, n)
			run(chunks-1, lo, hi)
		}
	}
	// Help-drain wait: while our chunks are outstanding, execute queued
	// pool tasks instead of parking. This is what makes nesting
	// deadlock-free — a pool worker blocked here on an inner For still
	// drains the queue, so queued chunks (ours or anyone's) always find
	// an executor. Every queued task is a run closure with its own
	// recover, so stolen panics stay with their own For call.
	for {
		select {
		case <-done:
			if panicked {
				panic(panicVal)
			}
			if cancelled {
				obsCancellations.Inc()
				return ctx.Err()
			}
			return nil
		default:
		}
		select {
		case <-done:
			if panicked {
				panic(panicVal)
			}
			if cancelled {
				obsCancellations.Inc()
				return ctx.Err()
			}
			return nil
		case task := <-pool.tasks:
			obsPoolQueued.Set(float64(len(pool.tasks)))
			task()
		}
	}
}

// ForWork is For with an explicit work hint: when work — a caller-chosen
// estimate of the call's total cost, typically items × a per-item cost
// factor — is below MinParallelWork(), the whole range runs sequentially
// in the caller's goroutine, exactly like workers == 1. Because every
// kernel is bit-identical at any worker count by construction, gating on
// the hint changes scheduling only, never results. Use it for kernels
// invoked across a huge dynamic range of input sizes (CART split search)
// where sub-threshold calls would pay more in chunk
// handoff than they save.
func ForWork(k *Kernel, workers, n, minChunk, work int, fn func(chunk, lo, hi int)) {
	if work < MinParallelWork() {
		if n <= 0 {
			return
		}
		k.seqRuns.Inc()
		fn(0, 0, n)
		return
	}
	For(k, workers, n, minChunk, fn)
}

// MapWork is Map with the same work-hint gate as ForWork: sub-threshold
// calls return a single-chunk result computed inline, identical to the
// workers == 1 path.
func MapWork[T any](k *Kernel, workers, n, minChunk, work int, fn func(chunk, lo, hi int) T) []T {
	if work < MinParallelWork() {
		if n <= 0 {
			return nil
		}
		k.seqRuns.Inc()
		return []T{fn(0, 0, n)}
	}
	return Map(k, workers, n, minChunk, fn)
}

// Map runs fn over [0, n) like For and returns the per-chunk results in
// chunk order, the deterministic input to an ordered reduce.
func Map[T any](k *Kernel, workers, n, minChunk int, fn func(chunk, lo, hi int) T) []T {
	out, _ := MapCtx(context.Background(), k, workers, n, minChunk, fn)
	return out
}

// MapCtx is Map with cooperative cancellation (see ForCtx). On
// cancellation the returned slice still has one slot per chunk but slots
// of skipped chunks hold zero values — callers must discard it when the
// error is non-nil.
func MapCtx[T any](ctx context.Context, k *Kernel, workers, n, minChunk int, fn func(chunk, lo, hi int) T) ([]T, error) {
	chunks := ChunkCount(workers, n, minChunk)
	if chunks == 0 {
		return nil, nil
	}
	out := make([]T, chunks)
	err := ForCtx(ctx, k, workers, n, minChunk, func(chunk, lo, hi int) {
		out[chunk] = fn(chunk, lo, hi)
	})
	return out, err
}

// workerPool is the process-wide bounded pool. Workers start lazily on
// first submission and live for the process lifetime; the task queue is
// bounded so saturation falls back to inline execution instead of
// unbounded buffering.
type workerPool struct {
	once  sync.Once
	tasks chan func()
}

var pool workerPool

func (p *workerPool) start() {
	// Size from the effective worker knob, not just GOMAXPROCS, so
	// AIDE_WORKERS above GOMAXPROCS actually adds pool capacity and the
	// "par.workers" gauge reports the setting callers see.
	size := runtime.GOMAXPROCS(0)
	if w := Workers(); w > size {
		size = w
	}
	obsWorkers.Set(float64(size))
	p.tasks = make(chan func(), 4*size)
	for i := 0; i < size; i++ {
		go func() {
			for fn := range p.tasks {
				obsPoolQueued.Set(float64(len(p.tasks)))
				fn()
			}
		}()
	}
}

// trySubmit enqueues fn without blocking; false means the queue is full
// and the caller must run fn itself.
func (p *workerPool) trySubmit(fn func()) bool {
	p.once.Do(p.start)
	select {
	case p.tasks <- fn:
		depth := float64(len(p.tasks))
		obsQueueDepth.Set(depth)
		obsPoolQueued.Set(depth)
		return true
	default:
		return false
	}
}
