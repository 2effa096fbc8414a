package engine

import "sync"

// Rows items hand their row-id buffers from the shard that filled them
// to the gather, which copies them into the caller's slice. Allocating
// those per-shard buffers fresh on every call is what once made the
// sharded scan path weigh ~5x the unsharded bytes/op; the pool here
// closes that gap, so only the final, caller-owned slice is freshly
// allocated per query.

// rowBufPool recycles row-id buffers that flow from shard backends to
// the gather. Ownership transfers with the buffer: a batch walk (or a
// cache hit copy, or the remote client's decoder) hands its buffer to
// the scatter result, and the gather releases it after copying the rows
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
