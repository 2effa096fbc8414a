package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestChunkCount(t *testing.T) {
	cases := []struct {
		workers, n, minChunk, want int
	}{
		{1, 100, 1, 1},
		{4, 100, 1, 4},
		{4, 3, 1, 3},                           // never more chunks than items
		{4, 0, 1, 0},                           // empty range
		{4, -5, 1, 0},                          // negative range
		{8, 100, 50, 2},                        // minChunk bounds chunk count
		{8, 100, 200, 1},                       // range smaller than one chunk
		{8, 100, 0, 8},                         // minChunk <= 0 treated as 1
		{0, 1 << 20, 1, runtime.GOMAXPROCS(0)}, // workers <= 0 means GOMAXPROCS
		{-3, 1 << 20, 1, runtime.GOMAXPROCS(0)},
	}
	for _, c := range cases {
		if got := ChunkCount(c.workers, c.n, c.minChunk); got != c.want {
			t.Errorf("ChunkCount(%d, %d, %d) = %d, want %d", c.workers, c.n, c.minChunk, got, c.want)
		}
	}
}

func TestChunkBoundsCoverExactly(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 1000, 1001} {
		for chunks := 1; chunks <= 9 && chunks <= n; chunks++ {
			prev := 0
			for c := 0; c < chunks; c++ {
				lo, hi := chunkBounds(c, chunks, n)
				if lo != prev {
					t.Fatalf("n=%d chunks=%d chunk %d: lo=%d want %d", n, chunks, c, lo, prev)
				}
				if hi <= lo {
					t.Fatalf("n=%d chunks=%d chunk %d: empty range [%d,%d)", n, chunks, c, lo, hi)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d chunks=%d: covered %d items", n, chunks, prev)
			}
		}
	}
}

// TestForVisitsEachItemOnce checks that every item runs once and that
// chunk c is handed chunkBounds(c): the contract per-chunk scratch and
// chunk-order merges rely on.
func TestForVisitsEachItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 1000
		var visits [n]atomic.Int32
		chunks := ChunkCount(workers, n, 1)
		calls := make([]atomic.Int32, chunks)
		For(workers, n, 1, func(c, lo, hi int) {
			calls[c].Add(1)
			if wlo, whi := chunkBounds(c, chunks, n); lo != wlo || hi != whi {
				t.Errorf("workers=%d: chunk %d got [%d,%d), want [%d,%d)", workers, c, lo, hi, wlo, whi)
			}
			for i := lo; i < hi; i++ {
				visits[i].Add(1)
			}
		})
		for c := range calls {
			if got := calls[c].Load(); got != 1 {
				t.Fatalf("workers=%d: chunk %d ran %d times", workers, c, got)
			}
		}
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForSequentialRunsInCaller(t *testing.T) {
	// workers == 1 must be a plain loop in the calling goroutine:
	// chunk index 0, full range, no concurrency.
	calls := 0
	For(1, 50, 1, func(chunk, lo, hi int) {
		calls++
		if chunk != 0 || lo != 0 || hi != 50 {
			t.Fatalf("sequential call got (chunk=%d, lo=%d, hi=%d)", chunk, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("sequential For made %d calls, want 1", calls)
	}
}

func TestForPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic not propagated", workers)
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("workers=%d: recovered %v", workers, r)
				}
			}()
			For(workers, 100, 1, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					if i == 37 {
						panic("boom")
					}
				}
			})
		}()
	}
}

// TestForFromPoolWorkers runs For from more independent caller
// goroutines than there are cores: every invocation must complete with
// each item visited once, and -race checks the calls share nothing.
func TestForFromPoolWorkers(t *testing.T) {
	const callers = 64
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			For(8, 512, 1, func(_, lo, hi int) {
				total.Add(int64(hi - lo))
			})
		}()
	}
	wg.Wait()
	if got := total.Load(); got != callers*512 {
		t.Fatalf("items processed = %d, want %d", got, callers*512)
	}
}

// TestForNested calls For from inside another For's chunk callbacks at
// workers > 1: every chunk has its own goroutine, so an outer chunk
// waiting on an inner call can never starve it. A watchdog fails fast
// instead of tripping the go test timeout.
func TestForNested(t *testing.T) {
	finished := make(chan int64)
	go func() {
		var total atomic.Int64
		// More outer chunks than cores, each blocking on an inner call.
		For(16, 64, 1, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				For(8, 512, 1, func(_, ilo, ihi int) {
					total.Add(int64(ihi - ilo))
				})
			}
		})
		finished <- total.Load()
	}()
	select {
	case got := <-finished:
		if want := int64(64 * 512); got != want {
			t.Fatalf("nested For processed %d items, want %d", got, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("nested For deadlocked (30s watchdog)")
	}
}

// TestForNestedDeep drives three levels of nesting concurrently from
// several callers at once.
func TestForNestedDeep(t *testing.T) {
	finished := make(chan int64)
	go func() {
		var total atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				For(8, 8, 1, func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						For(8, 8, 1, func(_, mlo, mhi int) {
							for j := mlo; j < mhi; j++ {
								For(8, 64, 1, func(_, ilo, ihi int) {
									total.Add(int64(ihi - ilo))
								})
							}
						})
					}
				})
			}()
		}
		wg.Wait()
		finished <- total.Load()
	}()
	select {
	case got := <-finished:
		if want := int64(4 * 8 * 8 * 64); got != want {
			t.Fatalf("deep nested For processed %d items, want %d", got, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deep nested For deadlocked (30s watchdog)")
	}
}

// TestForNestedPanic checks that a panic raised inside an inner For
// surfaces through the outer call.
func TestForNestedPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "inner boom" {
			t.Fatalf("recovered %v, want inner boom", r)
		}
	}()
	For(8, 16, 1, func(_, lo, hi int) {
		For(8, 128, 1, func(_, ilo, ihi int) {
			for i := ilo; i < ihi; i++ {
				if i == 77 {
					panic("inner boom")
				}
			}
		})
	})
}
