// Package par holds AIDE's two fan-outs: For, which splits an index
// build loop into fixed contiguous chunks and runs one goroutine per
// chunk, and Domain, which scatters one call per shard and launches
// the detached attempts (hedges, probes) that may outlive a scatter.
//
// Chunk boundaries depend only on (n, workers, minChunk), never on
// timing, so a caller that writes per-chunk results and merges them in
// chunk order produces the same bits at every worker count. One chunk
// runs in the caller's goroutine, exactly like a plain loop.
//
// Metrics: "par.tasks" counts the chunks of multi-chunk For calls;
// par_domain_active{domain} gauges a domain's running calls and
// par_domain_launched{domain} counts them.
package par

import (
	"runtime"
	"sync"

	"github.com/explore-by-example/aide/internal/obs"
)

var obsTasks = obs.GetCounter("par.tasks")

// ChunkCount returns the number of chunks For uses for a range of n
// items: at most workers (workers <= 0 means GOMAXPROCS), and never so
// many that a chunk holds fewer than minChunk items (minChunk <= 0 is
// treated as 1). n <= 0 yields 0.
func ChunkCount(workers, n, minChunk int) int {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n/max(minChunk, 1)))
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
// contiguous chunks, concurrently. fn receives the dense chunk index
// (usable to pick a per-chunk scratch buffer — each index runs exactly
// once per call) and its half-open item range. A panic in any chunk is
// re-raised in the caller after all chunks complete.
func For(workers, n, minChunk int, fn func(chunk, lo, hi int)) {
	chunks := ChunkCount(workers, n, minChunk)
	if chunks > 1 {
		obsTasks.Add(int64(chunks))
	}
	fanOut(chunks, func(c int) {
		lo, hi := chunkBounds(c, chunks, n)
		fn(c, lo, hi)
	})
}

// fanOut runs fn(0) … fn(n-1) concurrently — every index but the last
// on its own goroutine, the last in the caller — and returns once all
// have finished, re-raising the first panic any of them raised.
func fanOut(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicVal = r })
			}
		}()
		fn(i)
	}
	wg.Add(n - 1)
	for i := 0; i < n-1; i++ {
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	run(n - 1)
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Domain is a named goroutine domain for shard scatter-gather.
type Domain struct {
	sem      chan struct{}
	active   *obs.Gauge
	launched *obs.Counter
}

// NewDomain creates a domain whose Go calls are bounded to size
// concurrent goroutines (size < 1 is raised to 1). Scatter width is
// not bounded by size — its callers fan out a fixed shard count — so
// a Go issued from inside a Scatter body can never deadlock against
// the scatter itself.
func NewDomain(name string, size int) *Domain {
	return &Domain{
		sem:      make(chan struct{}, max(size, 1)),
		active:   obs.GetGaugeVec("par_domain_active", "domain").With(name),
		launched: obs.GetCounterVec("par_domain_launched", "domain").With(name),
	}
}

// Go runs fn on its own goroutine, blocking the caller until a domain
// slot is free. The goroutine is detached: Go returns as soon as fn is
// launched, and fn must install its own recover — a panic that escapes
// fn crashes the process, exactly like any unattended goroutine.
func (d *Domain) Go(fn func()) {
	d.sem <- struct{}{}
	d.launched.Inc()
	d.active.Add(1)
	go func() {
		defer func() {
			d.active.Add(-1)
			<-d.sem
		}()
		fn()
	}()
}

// Scatter runs fn(0) … fn(n-1) concurrently and waits for all of them,
// the last in the caller's goroutine. n is a shard count, small and
// fixed, so the width is not drawn from the Go slot budget. The first
// panic raised by any fn is re-raised on the caller after every call
// finishes.
func (d *Domain) Scatter(n int, fn func(i int)) {
	d.launched.Add(int64(max(n, 0)))
	fanOut(n, func(i int) {
		d.active.Add(1)
		defer d.active.Add(-1)
		fn(i)
	})
}
