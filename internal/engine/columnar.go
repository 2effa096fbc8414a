package engine

import (
	"math"
	"math/bits"
	"slices"

	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/par"
)

// gridIndex partitions the normalized space into cellsPerDim^d equal
// cells and stores the view's rows columnar, counting-sorted by flat
// cell id: slot s holds row rows[s], cell id owns the slot range
// [offsets[id], offsets[id+1]), and slabs[d][s] is the row's normalized
// value along dimension d — the view's only normalized copy of its
// columns. Per-cell zonemaps (min/max per dimension)
// let scans answer covered and disjoint cells from metadata alone;
// only cells whose zonemaps straddle the query rect touch the slabs,
// and those run a word-wise range filter over contiguous columns.
type gridIndex struct {
	dims        int
	cellsPerDim int
	cellWidth   float64
	// Columnar (SoA) layout, rows counting-sorted by cell id. Within a
	// cell, slots hold rows in ascending row-id order — the invariant
	// every deterministic-order contract in this package leans on.
	offsets []int32     // len cells+1; cell id -> slot range
	rows    []int32     // slot -> row id
	slabs   [][]float64 // [dim][slot] -> normalized value
	// Zonemaps: actual min/max of each cell's rows per dimension (not
	// the cell's geometric bounds — zonemaps are tighter and prove
	// containment/disjointness the geometry can't). Empty cells hold
	// (+Inf, -Inf); cells containing a NaN value are poisoned to
	// (-Inf, +Inf) so they always take the per-row path, which mirrors
	// Contains' NaN semantics exactly.
	zoneMin [][]float64 // [dim][cell]
	zoneMax [][]float64
}

// numCells returns the total flat cell count.
func (g *gridIndex) numCells() int { return len(g.offsets) - 1 }

// cellRows returns the row ids of one cell (ascending).
func (g *gridIndex) cellRows(id int32) []int32 {
	return g.rows[g.offsets[id]:g.offsets[id+1]]
}

// widen is copy across the int32 → int width change: how every kernel
// emits a span of slots whose rows all match. It returns len(src).
func widen(dst []int, src []int32) int {
	dst = dst[:len(src)] // lets the compiler drop the loop's bounds checks
	for i, r := range src {
		dst[i] = int(r)
	}
	return len(src)
}

// newGridIndex returns an empty grid for rows rows in d dimensions, at a
// resolution where the average cell holds a modest number of rows
// without exploding the cell count in high dimensions. countCells
// counts the rows into its offsets, and layout lays them out.
func newGridIndex(d, rows int) *gridIndex {
	// Target ~64 rows per cell, capped to keep memory bounded.
	target := float64(rows) / 64
	if target < 1 {
		target = 1
	}
	per := int(math.Ceil(math.Pow(target, 1/float64(d))))
	maxPer := []int{0, 4096, 512, 64, 24, 12, 8, 6, 5}
	capPer := 5
	if d < len(maxPer) {
		capPer = maxPer[d]
	}
	if per > capPer {
		per = capPer
	}
	if per < 2 {
		per = 2
	}
	cells := 1
	for i := 0; i < d; i++ {
		cells *= per
	}
	return &gridIndex{
		dims:        d,
		cellsPerDim: per,
		cellWidth:   (geom.NormMax - geom.NormMin) / float64(per),
		offsets:     make([]int32, cells+1),
	}
}

// countCells is the build's census of v's rows, one parallel pass that
// stores nothing per row: it returns, per par.For chunk (contiguous row
// ranges, the same at every call with the same worker count), how many
// rows fall in each of g's cells, and sets g's offsets to each cell's
// first slot over all rows.
func (g *gridIndex) countCells(v *View, workers int) (chunks [][]int32) {
	cells := len(g.offsets) - 1
	rows := v.NumRows()
	chunks = make([][]int32, par.ChunkCount(workers, rows, 1024))
	par.For(workers, rows, 1024, func(c, lo, hi int) {
		counts := make([]int32, cells)
		for r := lo; r < hi; r++ {
			counts[g.cellOf(v, r)]++
		}
		chunks[c] = counts
	})
	for _, counts := range chunks {
		for id, n := range counts {
			g.offsets[id+1] += n
		}
	}
	for i := 1; i <= cells; i++ {
		g.offsets[i] += g.offsets[i-1]
	}
	return chunks
}

// layout returns the grid of g's cells [c0, c1) over v's rows, from
// countCells' census: the view's grid is the full range, a shard's grid
// its own cells. g's offsets are rebased to the range (cells outside it
// are empty). A second parallel pass over the census chunks
// counting-sorts the range's rows by cell, each chunk's rows after the
// earlier chunks', so rows ascend within a cell at any worker count.
// The slabs then gather each dimension's normalized values (normAt, the
// expression every reader recomputes) into slot order and fold the
// per-cell zonemaps in the same sweep.
func (g *gridIndex) layout(v *View, chunks [][]int32, c0, c1, workers int) *gridIndex {
	out := &gridIndex{dims: g.dims, cellsPerDim: g.cellsPerDim, cellWidth: g.cellWidth, offsets: rebase(g.offsets, c0, c1)}
	cells := g.numCells()
	out.rows = make([]int32, out.offsets[cells])
	next := make([][]int32, len(chunks)) // per chunk: the next free slot of each cell in range
	run := make([]int32, c1-c0)
	copy(run, out.offsets[c0:c1])
	for c, counts := range chunks {
		next[c] = slices.Clone(run)
		for id := range run {
			run[id] += counts[c0+id]
		}
	}
	par.For(workers, v.NumRows(), 1024, func(c, lo, hi int) {
		nx := next[c]
		for r := lo; r < hi; r++ {
			if id := g.cellOf(v, r) - c0; uint(id) < uint(len(nx)) {
				out.rows[nx[id]] = int32(r)
				nx[id]++
			}
		}
	})
	out.slabs = make([][]float64, g.dims)
	out.zoneMin = make([][]float64, g.dims)
	out.zoneMax = make([][]float64, g.dims)
	par.For(workers, g.dims, 1, func(_, dlo, dhi int) {
		for i := dlo; i < dhi; i++ {
			slab := make([]float64, len(out.rows))
			zmin := make([]float64, cells)
			zmax := make([]float64, cells)
			for c := 0; c < cells; c++ {
				lo, hi := out.offsets[c], out.offsets[c+1]
				cmin, cmax := math.Inf(1), math.Inf(-1)
				nan := false
				for s := lo; s < hi; s++ {
					val := v.normAt(i, int(out.rows[s]))
					slab[s] = val
					if val != val {
						nan = true
						continue
					}
					if val < cmin {
						cmin = val
					}
					if val > cmax {
						cmax = val
					}
				}
				if nan {
					cmin, cmax = math.Inf(-1), math.Inf(1)
				}
				zmin[c], zmax[c] = cmin, cmax
			}
			out.slabs[i] = slab
			out.zoneMin[i] = zmin
			out.zoneMax[i] = zmax
		}
	})
	return out
}

// rebase clamps offsets to the slots of cells [c0, c1) and shifts them
// to start at slot 0: cells outside the range collapse to empty (off ==
// end), which walkBox skips while keeping covered-middle spans —
// clamped — correct.
func rebase(offsets []int32, c0, c1 int) []int32 {
	lo, hi := offsets[c0], offsets[c1]
	out := make([]int32, len(offsets))
	for c, o := range offsets {
		out[c] = min(max(o, lo), hi) - lo
	}
	return out
}

// sub returns the grid of g's cells [c0, c1) without copying a row: its
// slot arrays subslice g's, and it shares g's zonemaps (cell-id indexed;
// the cells outside the range are empty in it, so theirs are never read).
func (g *gridIndex) sub(c0, c1 int) *gridIndex {
	lo, hi := g.offsets[c0], g.offsets[c1]
	sg := *g
	sg.offsets, sg.rows, sg.slabs = rebase(g.offsets, c0, c1), g.rows[lo:hi], make([][]float64, g.dims)
	for d := range sg.slabs {
		sg.slabs[d] = g.slabs[d][lo:hi]
	}
	return &sg
}

// cellOf returns the flat cell id of v's row r.
func (g *gridIndex) cellOf(v *View, r int) int {
	id := 0
	for i := 0; i < g.dims; i++ {
		c := int((v.normAt(i, r) - geom.NormMin) / g.cellWidth)
		if c >= g.cellsPerDim {
			c = g.cellsPerDim - 1
		}
		if c < 0 {
			c = 0
		}
		id = id*g.cellsPerDim + c
	}
	return id
}

// cellRange returns the [lo,hi] cell coordinates overlapping interval iv
// along one dimension, and whether the overlap is non-empty.
func (g *gridIndex) cellRange(iv geom.Interval) (int, int, bool) {
	if iv.Hi < geom.NormMin || iv.Lo > geom.NormMax || iv.Lo > iv.Hi {
		return 0, 0, false
	}
	lo := int(math.Floor((math.Max(iv.Lo, geom.NormMin) - geom.NormMin) / g.cellWidth))
	hi := int(math.Floor((math.Min(iv.Hi, geom.NormMax) - geom.NormMin) / g.cellWidth))
	if lo >= g.cellsPerDim {
		lo = g.cellsPerDim - 1
	}
	if hi >= g.cellsPerDim {
		hi = g.cellsPerDim - 1
	}
	return lo, hi, true
}

// coveredRange returns the sub-range of cell coordinates [lo,hi] along
// dimension dim whose cells lie geometrically inside rect[dim]
// (empty when lo' > hi'). Coverage is monotone in the coordinate, so
// only the two endpoints need the float comparisons — which are the
// exact expressions visitCells' full flag uses, keeping the geometric
// notion of "covered" bit-identical across the scan paths.
func (g *gridIndex) coveredRange(iv geom.Interval, lo, hi int) (int, int) {
	cLo, cHi := lo, hi
	if cellLo := geom.NormMin + float64(lo)*g.cellWidth; cellLo < iv.Lo {
		cLo = lo + 1
	}
	if cellLo := geom.NormMin + float64(hi)*g.cellWidth; cellLo+g.cellWidth > iv.Hi {
		cHi = hi - 1
	}
	return cLo, cHi
}

// visitCells invokes fn for every non-empty cell overlapping rect, in
// row-major cell order. full is true when the cell lies geometrically
// entirely inside rect, so its rows need no verification. fn returning
// false stops the visit. This is the sequential reference walk; queries
// use walkBox (batch.go).
func (g *gridIndex) visitCells(rect geom.Rect, fn func(id int32, rows []int32, full bool) bool) {
	lo := make([]int, g.dims)
	hi := make([]int, g.dims)
	for i := 0; i < g.dims; i++ {
		l, h, ok := g.cellRange(rect[i])
		if !ok {
			return
		}
		lo[i], hi[i] = l, h
	}
	coord := make([]int, g.dims)
	copy(coord, lo)
	for {
		id := 0
		full := true
		for i := 0; i < g.dims; i++ {
			id = id*g.cellsPerDim + coord[i]
			cellLo := geom.NormMin + float64(coord[i])*g.cellWidth
			cellHi := cellLo + g.cellWidth
			if cellLo < rect[i].Lo || cellHi > rect[i].Hi {
				full = false
			}
		}
		if rows := g.cellRows(int32(id)); len(rows) > 0 {
			if !fn(int32(id), rows, full) {
				return
			}
		}
		// Advance odometer.
		i := g.dims - 1
		for ; i >= 0; i-- {
			coord[i]++
			if coord[i] <= hi[i] {
				break
			}
			coord[i] = lo[i]
		}
		if i < 0 {
			return
		}
	}
}

// Zonemap classification of one cell against a query rect.
const (
	zonePartial  = iota // zonemap straddles the rect: per-row filter needed
	zoneCovered         // every row provably inside the rect
	zoneDisjoint        // no row can be inside the rect
)

// zoneClassify classifies a non-empty cell by its zonemap. NaN-poisoned
// cells ((-Inf,+Inf) bounds) always classify partial unless the rect is
// unbounded on the poisoned dimensions — in which case Contains admits
// NaN rows too, so zoneCovered stays truthful.
func (g *gridIndex) zoneClassify(rect geom.Rect, id int32) int {
	covered := true
	for i := 0; i < g.dims; i++ {
		zmin, zmax := g.zoneMin[i][id], g.zoneMax[i][id]
		if zmax < rect[i].Lo || zmin > rect[i].Hi {
			return zoneDisjoint
		}
		if zmin < rect[i].Lo || zmax > rect[i].Hi {
			covered = false
		}
	}
	if covered {
		return zoneCovered
	}
	return zonePartial
}

// evalCellBits appends one bit per slot of cell id to dst (bit i of
// word w covers slot off+64w+i), set when the row passes every range
// clause of rect. Clauses the cell's zonemap already satisfies are
// skipped; the remaining clauses each sweep their contiguous column
// slab building a per-clause word that is ANDed into the result — the
// word-wise conjunction the columnar layout exists for. The match
// predicate is exactly Contains' (!(v < lo || v > hi)), NaN semantics
// included.
func (g *gridIndex) evalCellBits(rect geom.Rect, id, off, end int32, dst []uint64) []uint64 {
	n := int(end - off)
	nw := (n + 63) >> 6
	base := len(dst)
	dst = slices.Grow(dst, nw)[:base+nw]
	words := dst[base:]
	first := true
	for d := 0; d < g.dims; d++ {
		lo, hi := rect[d].Lo, rect[d].Hi
		if g.zoneMin[d][id] >= lo && g.zoneMax[d][id] <= hi {
			continue // zonemap satisfies this clause for every row
		}
		col := g.slabs[d][off:end]
		if first {
			for w := 0; w < nw; w++ {
				b := w << 6
				m := n - b
				if m > 64 {
					m = 64
				}
				var bw uint64
				for i := 0; i < m; i++ {
					v := col[b+i]
					keep := uint64(1)
					if v < lo || v > hi {
						keep = 0
					}
					bw |= keep << uint(i)
				}
				words[w] = bw
			}
			first = false
			continue
		}
		for w := 0; w < nw; w++ {
			if words[w] == 0 {
				continue
			}
			b := w << 6
			m := n - b
			if m > 64 {
				m = 64
			}
			var bw uint64
			for i := 0; i < m; i++ {
				v := col[b+i]
				keep := uint64(1)
				if v < lo || v > hi {
					keep = 0
				}
				bw |= keep << uint(i)
			}
			words[w] &= bw
		}
	}
	if first {
		// Every clause was zonemap-satisfied. Callers route such cells to
		// the span path, but stay correct if one lands here.
		for w := 0; w < nw; w++ {
			words[w] = ^uint64(0)
		}
		if tail := n & 63; tail != 0 {
			words[nw-1] = (uint64(1) << uint(tail)) - 1
		}
	}
	return dst
}

// slotBitmap is a dense bitmap over the view's slots (one bit per row,
// in cell-major slot order). Query.Execute builds one per query so a
// disjunction of areas becomes bitwise OR instead of re-scans and
// map-based dedup.
type slotBitmap []uint64

func newSlotBitmap(slots int) slotBitmap {
	return make(slotBitmap, (slots+63)>>6)
}

// setRange sets slots [lo, hi).
func (b slotBitmap) setRange(lo, hi int32) {
	if lo >= hi {
		return
	}
	wlo, whi := int(lo>>6), int((hi-1)>>6)
	first := ^uint64(0) << uint(lo&63)
	last := ^uint64(0) >> uint(63-(hi-1)&63)
	if wlo == whi {
		b[wlo] |= first & last
		return
	}
	b[wlo] |= first
	for w := wlo + 1; w < whi; w++ {
		b[w] = ^uint64(0)
	}
	b[whi] |= last
}

// orCellBits ORs a cell bitmap (as produced by evalCellBits, based at
// slot off) into the slot bitmap.
func (b slotBitmap) orCellBits(off int32, words []uint64) {
	for w, bw := range words {
		for bw != 0 {
			t := bits.TrailingZeros64(bw)
			s := int(off) + w<<6 + t
			b[s>>6] |= 1 << uint(s&63)
			bw &= bw - 1
		}
	}
}

// count returns the number of set slots.
func (b slotBitmap) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}
