package engine

import "sync"

// Scatter-gather used to allocate its scan state — cell runs, bitmap
// arenas, segment lists, and above all the per-shard row-id buffers —
// fresh on every attempt, which is why the sharded scan path weighed
// in at ~5x the unsharded bytes/op. The pools here close that gap:
// shard cores borrow their scratch per attempt, and the per-shard row
// buffers they return are adopted by the gather and recycled once the
// rows are copied into the final result. Only the final, caller-owned
// slice is freshly allocated per query.

// shardScratch is one attempt's worth of shard-core scan state. Hedged
// attempts on the same shard each borrow their own, so cores stay safe
// for concurrent calls.
type shardScratch struct {
	runs  []cellRun
	arena []uint64
	segs  []scanSeg
}

var shardScratchPool = sync.Pool{New: func() any { return &shardScratch{} }}

func getShardScratch() *shardScratch  { return shardScratchPool.Get().(*shardScratch) }
func putShardScratch(s *shardScratch) { shardScratchPool.Put(s) }

// rowBufPool recycles row-id buffers that flow from shard backends to
// the gather. Ownership transfers with the buffer: a core (or a cache
// hit copy, or the remote client's decoder) hands its buffer to the
// scatter result, and gatherRows releases it after copying the rows
// into the caller's slice.
var rowBufPool sync.Pool

// minPooledRows keeps trivially small buffers out of the pool; they
// cost nothing to allocate and would evict useful large ones.
const minPooledRows = 256

// getRowBuf returns a length-n row buffer, reusing a pooled one when
// its capacity suffices.
func getRowBuf(n int) []int {
	if v := rowBufPool.Get(); v != nil {
		if buf := v.([]int); cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]int, n)
}

// releaseRowBuf returns a row buffer to the pool once its contents have
// been copied out. The caller must not touch buf afterwards.
func releaseRowBuf(buf []int) {
	if cap(buf) >= minPooledRows {
		rowBufPool.Put(buf[:0:cap(buf)]) //nolint:staticcheck // slice header boxing is noise next to the buffer it recycles
	}
}
