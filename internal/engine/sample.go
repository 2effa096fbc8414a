package engine

import (
	"context"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"github.com/explore-by-example/aide/internal/geom"
)

// SampleRect returns up to n distinct rows drawn uniformly at random from
// the rows inside rect (normalized space). This is the engine primitive
// behind every AIDE sample-extraction query: object discovery samples
// around cell centers, misclassified exploitation samples Chebyshev balls
// around false negatives, and boundary exploitation samples face slabs.
// Sampling is exact-uniform over the matching rows (not over cells), so
// skewed data does not bias results. It is a batch of one: the plan is
// built by ExecuteBatch and drawn by BatchResults.Sample.
func (v *View) SampleRect(rect geom.Rect, n int, rng *rand.Rand) []int {
	return v.ExecuteBatch([]BatchQuery{{Kind: BatchSample, Rect: rect, N: n}}).Sample(0, rng)
}

// samplePiece is one grid's share of a sample sub-query's candidate
// layout — the state a draw needs, and nothing it can recompute. The
// layout contract is load-bearing: the rows of geometrically covered
// cells come first and boundary-cell survivors follow, each in row-major
// cell order, rows ascending within a cell. Zonemaps never move a cell
// between the groups. A plan is an ordered list of pieces (one for an
// unsharded view, one per shard otherwise, in shard order — shards cut
// at cell boundaries, so that is cell order); its layout is every
// piece's covered rows, then every piece's survivors.
//
// A lazy piece (rect != nil) holds no row ids: only how many rows the
// covered cells own and how many rows of each non-empty boundary cell
// match, in walk order. resolve maps a layout index back to its row by
// re-walking the cell box, which reproduces the materialized layout's
// index→row mapping exactly because both walks visit the same cells in
// the same order and a cell's survivors are its set bits in slot order.
// A rows piece (rect == nil) is the materialized layout at the wire's
// int32 width: what a remote shard answered, or a covering-index range.
//
// Pieces are immutable once built, so the predicate cache shares them
// across sessions; g is bound per use and never cached.
type samplePiece struct {
	g         *gridIndex
	rect      geom.Rect
	fullTotal int      // rows of the covered cells
	partTotal int      // matching rows of the boundary cells
	counts    []uint16 // lazy: matches per non-empty boundary cell; bigCount escapes to big
	big       []int32  // lazy: the counts >= bigCount, in order
	rows      []int32  // rows piece: fullTotal covered rows, then partTotal survivors
}

// bigCount marks a boundary cell whose match count does not fit a
// uint16; the real count is the next unread element of big.
const bigCount = 1<<16 - 1

// addCell records the next boundary cell's match count.
func (p *samplePiece) addCell(m int) {
	p.partTotal += m
	if m >= bigCount {
		p.counts = append(p.counts, bigCount)
		p.big = append(p.big, int32(m))
		return
	}
	p.counts = append(p.counts, uint16(m))
}

// walk replays a lazy piece's layout in order: span for each maximal
// slot range of covered cells, cell for each non-empty boundary cell
// with its recorded match count m. Either callback returning false
// stops the walk.
func (p *samplePiece) walk(span func(slo, shi int32) bool, cell func(id, off, end int32, m int) bool) {
	g := p.g
	dims := g.dims
	var small [5 * 6]int // keeps the box of a view of up to 6 dimensions off the heap
	backing := small[:]
	if len(backing) < 5*dims {
		backing = make([]int, 5*dims)
	}
	b := batchBox{lo: backing[:dims], hi: backing[dims : 2*dims], cLo: backing[2*dims : 3*dims], cHi: backing[3*dims : 4*dims]}
	if !g.fillBox(&b, p.rect) {
		return
	}
	ci, bi := 0, 0
	g.walkBox(context.Background(), &b, backing[4*dims:5*dims], span, func(id, off, end int32) bool {
		m := int(p.counts[ci])
		ci++
		if m == bigCount {
			m = int(p.big[bi])
			bi++
		}
		return cell(id, off, end, m)
	})
}

// resolve replaces each layout index by its row, in place: full holds
// ascending indices into the piece's covered rows, part ascending
// indices into its survivors. Only the boundary cells an index lands in
// are re-evaluated — those rows are the examined count it returns; a
// cell whose rows all match is answered from its slots alone.
func (p *samplePiece) resolve(full, part []int) (examined int64) {
	if p.rect == nil {
		for i, j := range full {
			full[i] = int(p.rows[j])
		}
		for i, j := range part {
			part[i] = int(p.rows[p.fullTotal+j])
		}
		return 0
	}
	g := p.g
	fi, pi := 0, 0
	fcum, pcum := 0, 0 // layout rows before the current span / cell
	var words []uint64
	p.walk(func(slo, shi int32) bool {
		next := fcum + int(shi-slo)
		for fi < len(full) && full[fi] < next {
			full[fi] = int(g.rows[int(slo)+full[fi]-fcum])
			fi++
		}
		fcum = next
		return fi < len(full) || pi < len(part)
	}, func(id, off, end int32, m int) bool {
		next := pcum + m
		if pi < len(part) && part[pi] < next {
			if m == int(end-off) {
				for pi < len(part) && part[pi] < next {
					part[pi] = int(g.rows[int(off)+part[pi]-pcum])
					pi++
				}
			} else {
				examined += int64(end - off)
				words = g.evalCellBits(p.rect, id, off, end, words[:0])
				seen := pcum // survivors before the current word
				for w, bw := range words {
					ones := bits.OnesCount64(bw)
					for pi < len(part) && part[pi] < seen+ones {
						part[pi] = int(g.rows[int(off)+w<<6+selectBit(bw, part[pi]-seen)])
						pi++
					}
					seen += ones
				}
			}
		}
		pcum = next
		return fi < len(full) || pi < len(part)
	})
	return examined
}

// selectBit returns the position of the k-th (0-based) set bit of w.
func selectBit(w uint64, k int) int {
	for ; k > 0; k-- {
		w &= w - 1
	}
	return bits.TrailingZeros64(w)
}

// blocks materializes the piece in the shape the wire carries: the
// covered rows as blocks (subslices of the grid for a lazy piece, never
// copied) and the survivors as one list.
func (p *samplePiece) blocks() (full [][]int32, partial []int32) {
	if p.rect == nil {
		if p.fullTotal > 0 {
			full = [][]int32{p.rows[:p.fullTotal]}
		}
		return full, p.rows[p.fullTotal:]
	}
	g := p.g
	if p.partTotal > 0 {
		partial = make([]int32, 0, p.partTotal)
	}
	var words []uint64
	p.walk(func(slo, shi int32) bool {
		full = append(full, g.rows[slo:shi])
		return true
	}, func(id, off, end int32, m int) bool {
		switch m {
		case 0:
		case int(end - off):
			partial = append(partial, g.rows[off:end]...)
		default:
			words = g.evalCellBits(p.rect, id, off, end, words[:0])
			for w, bw := range words {
				for ; bw != 0; bw &= bw - 1 {
					partial = append(partial, g.rows[int(off)+w<<6+bits.TrailingZeros64(bw)])
				}
			}
		}
		return true
	})
	return full, partial
}

// drawSample draws up to n rows from a plan: the one draw routine
// behind every sample path. It consumes rng exactly as the materialized
// layout did — floydSample over the total then the shuffle, or the
// shuffle alone when n covers every candidate — and resolves the chosen
// ascending indices piece by piece, one walk each.
func drawSample(pieces []samplePiece, n int, rng *rand.Rand) (out []int, examined int64) {
	fullAll, total := 0, 0
	for k := range pieces {
		fullAll += pieces[k].fullTotal
		total += pieces[k].fullTotal + pieces[k].partTotal
	}
	if total == 0 {
		return nil, 0
	}
	if n >= total {
		out = make([]int, total)
		for i := range out {
			out[i] = i
		}
	} else {
		out = floydSample(total, n, rng)
	}
	nf, _ := slices.BinarySearch(out, fullAll)
	f, p := 0, nf // next unresolved covered / survivor index
	fBase, pBase := 0, fullAll
	for k := range pieces {
		pc := &pieces[k]
		f0, p0 := f, p
		for ; f < nf && out[f] < fBase+pc.fullTotal; f++ {
			out[f] -= fBase
		}
		for ; p < len(out) && out[p] < pBase+pc.partTotal; p++ {
			out[p] -= pBase
		}
		if f > f0 || p > p0 {
			examined += pc.resolve(out[f0:f], out[p0:p])
		}
		fBase += pc.fullTotal
		pBase += pc.partTotal
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, examined
}

// floydSample returns n distinct indices in [0, total) via Floyd's
// algorithm, in ascending order. The sorted order (rather than map
// iteration order) keeps the caller's subsequent rng-driven shuffle — and
// therefore the whole sample — reproducible for a given rng state.
func floydSample(total, n int, rng *rand.Rand) []int {
	chosen := make(map[int]struct{}, n)
	for j := total - n; j < total; j++ {
		t := rng.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
	}
	out := make([]int, 0, n)
	for idx := range chosen {
		out = append(out, idx)
	}
	slices.Sort(out)
	return out
}

// SampleNear returns up to n rows within Chebyshev distance y of center
// (normalized space): the "f random samples within a normalized distance
// y on each dimension" of Section 4.2.
func (v *View) SampleNear(center geom.Point, y float64, n int, rng *rand.Rand) []int {
	return v.SampleRect(geom.RectAround(center, y, geom.NewRect(v.Dims())), n, rng)
}

// SampleAll returns n rows drawn uniformly from the entire view, the
// primitive behind the Random baseline of Section 6.2.
func (v *View) SampleAll(n int, rng *rand.Rand) []int {
	defer observeQuery(time.Now())
	obsSampleCalls.Inc()
	v.stats.Queries.Add(1)
	total := v.NumRows()
	if total == 0 || n <= 0 {
		return nil
	}
	if n >= total {
		out := rng.Perm(total)
		return out
	}
	out := floydSample(total, n, rng)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// SampleOneNearCenter returns one random row within Chebyshev distance
// gamma of the given cell center, or -1 when the area holds no rows. This
// is the per-cell retrieval of the object discovery phase (Section 3):
// "for each cell, we identify the virtual center and we retrieve a single
// random object within distance gamma < delta/2 along each dimension".
func (v *View) SampleOneNearCenter(center geom.Point, gamma float64, rng *rand.Rand) int {
	rows := v.SampleNear(center, gamma, 1, rng)
	if len(rows) == 0 {
		return -1
	}
	return rows[0]
}

// DensityIn returns the number of rows inside rect divided by the total
// row count. Discovery uses cell density to adapt its sampling radius to
// skew (sparse cells get a larger gamma, Section 3).
func (v *View) DensityIn(rect geom.Rect) float64 {
	if v.NumRows() == 0 {
		return 0
	}
	return float64(v.Count(rect)) / float64(v.NumRows())
}
