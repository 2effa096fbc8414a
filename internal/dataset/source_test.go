package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"
)

// sdssDigests pins an FNV-64a digest of every column of
// GenerateSDSS(n, seed), one per column in schema order, as the
// row-at-a-time generator produced them before it became a collect over
// SDSSSource.
var sdssDigests = []struct {
	n       int
	seed    int64
	columns [6]uint64
}{
	{0, 1, [6]uint64{0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325}},
	{1, 1, [6]uint64{0x5aec4b1eed4bfaa4, 0xf7e2dba5e0c3bd84, 0xd0e2466d39588acc, 0x20772b0fc38143ed, 0x524a6f7d44f663a8, 0x7cdec030eccb33b1}},
	{1000, 7, [6]uint64{0x87291c4c0adeecba, 0xdce0e90fe6b32a41, 0x35d7e6cfb3055f16, 0xa3f796a4745150c8, 0x76264a4c666fa42f, 0xde28b663971b010d}},
	{200000, 3, [6]uint64{0xb5c20fd47193f39c, 0x83921bfc5c22b27d, 0x701e605d5392ef36, 0x6d8af9512f70b94c, 0x8f2d0357701d5041, 0xb659bd919816db1f}},
}

// columnDigest hashes a column's float64 bit patterns in row order.
func columnDigest(col []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range col {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// scanColumns collects what one Scan of cols yields, column by column,
// failing unless rows arrive once each in row order.
func scanColumns(t *testing.T, src Source, cols []int) [][]float64 {
	t.Helper()
	out := make([][]float64, len(cols))
	next := 0
	src.Scan(cols, func(r int, vals []float64) {
		if r != next || len(vals) != len(cols) {
			t.Fatalf("Scan(%v) gave row %d with %d values, want row %d with %d", cols, r, len(vals), next, len(cols))
		}
		next++
		for i, v := range vals {
			out[i] = append(out[i], v)
		}
	})
	if next != src.NumRows() {
		t.Fatalf("Scan(%v) gave %d rows, want %d", cols, next, src.NumRows())
	}
	return out
}

// TestGenerateSDSSDigests pins GenerateSDSS's output bit for bit: every
// column of every pinned (n, seed) hashes to its digest.
func TestGenerateSDSSDigests(t *testing.T) {
	for _, c := range sdssDigests {
		tab := GenerateSDSS(c.n, c.seed)
		if tab.NumRows() != c.n || tab.Name() != "PhotoObjAll" || !reflect.DeepEqual(tab.Schema(), SDSSSchema()) {
			t.Fatalf("GenerateSDSS(%d, %d): %q with %d rows", c.n, c.seed, tab.Name(), tab.NumRows())
		}
		for col, want := range c.columns {
			if got := columnDigest(tab.Col(col)); got != want {
				t.Errorf("GenerateSDSS(%d, %d) column %s digest %#016x, want %#016x", c.n, c.seed, SDSSSchema()[col].Name, got, want)
			}
		}
	}
}

// TestSDSSSourceScansAnySubset checks that SDSSSource yields exactly the
// pinned columns over any column subset, in any order: on a fresh
// source, whose first Scan computes every column and records the Zipf
// draws, and on later Scans that replay from that record, with or
// without fieldID. Its Ends, asked before any Scan or after, are
// GenerateSDSS's first and last rows.
func TestSDSSSourceScansAnySubset(t *testing.T) {
	for _, c := range sdssDigests {
		var subsets [][]int
		if c.n <= 1000 {
			for mask := 1; mask < 1<<6; mask++ {
				var cols []int
				for col := 5; col >= 0; col-- { // descending: order is the caller's
					if mask&(1<<col) != 0 {
						cols = append(cols, col)
					}
				}
				subsets = append(subsets, cols)
			}
		} else {
			subsets = [][]int{{0, 1, 2, 3}, {4}, {3, 0}, {5, 2}, {0, 1, 2, 3, 4, 5}, {1}}
		}
		src := SDSSSource(c.n, c.seed)
		if src.Name() != "PhotoObjAll" || src.NumRows() != c.n || !reflect.DeepEqual(src.Schema(), SDSSSchema()) {
			t.Fatalf("SDSSSource(%d, %d) is %q with %d rows", c.n, c.seed, src.Name(), src.NumRows())
		}
		tab := GenerateSDSS(c.n, c.seed)
		wantFirst, wantLast := tab.Ends()
		if first, last := SDSSSource(c.n, c.seed).Ends(); !reflect.DeepEqual(first, wantFirst) || !reflect.DeepEqual(last, wantLast) {
			t.Fatalf("SDSSSource(%d, %d).Ends() before a Scan = %v, %v; want %v, %v", c.n, c.seed, first, last, wantFirst, wantLast)
		}
		for _, cols := range subsets {
			got := scanColumns(t, src, cols)
			for i, col := range cols {
				if d := columnDigest(got[i]); d != c.columns[col] {
					t.Fatalf("SDSSSource(%d, %d).Scan(%v) column %s digest %#016x, want %#016x", c.n, c.seed, cols, SDSSSchema()[col].Name, d, c.columns[col])
				}
			}
		}
		if first, last := src.Ends(); !reflect.DeepEqual(first, wantFirst) || !reflect.DeepEqual(last, wantLast) {
			t.Fatalf("SDSSSource(%d, %d).Ends() after its Scans = %v, %v; want %v, %v", c.n, c.seed, first, last, wantFirst, wantLast)
		}
	}
}

// TestTableScan checks that a Table, as a Source, yields its own columns
// and ends.
func TestTableScan(t *testing.T) {
	tab := GenerateSDSS(500, 4)
	if first, last := tab.Ends(); !reflect.DeepEqual(first, tab.Row(0)) || !reflect.DeepEqual(last, tab.Row(499)) {
		t.Fatalf("Ends() = %v, %v", first, last)
	}
	if first, last := tab.Subset("empty", nil).Ends(); first != nil || last != nil {
		t.Fatalf("empty table's Ends() = %v, %v, want nil, nil", first, last)
	}
	for _, cols := range [][]int{{}, {2}, {5, 0, 3}} {
		got := scanColumns(t, tab, cols)
		for i, col := range cols {
			if !reflect.DeepEqual(got[i], tab.Col(col)) {
				t.Fatalf("Scan(%v) column %d differs from the table's", cols, col)
			}
		}
	}
}

// TestSDSSSourceConcurrentScans runs Scans and Ends of one fresh source
// from several goroutines at once: each yields the pinned columns, and
// the record the first Scans race to keep serves later ones.
func TestSDSSSourceConcurrentScans(t *testing.T) {
	c := sdssDigests[2]
	src := SDSSSource(c.n, c.seed)
	wantFirst, wantLast := GenerateSDSS(c.n, c.seed).Ends()
	subsets := [][]int{{0, 1, 2, 3}, {5}, {4, 0}, {3}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				cols := subsets[(g+i)%len(subsets)]
				got := make([][]float64, len(cols))
				src.Scan(cols, func(_ int, vals []float64) {
					for k, v := range vals {
						got[k] = append(got[k], v)
					}
				})
				for k, col := range cols {
					if d := columnDigest(got[k]); d != c.columns[col] {
						t.Errorf("goroutine %d Scan(%v) column %d digest %#016x, want %#016x", g, cols, col, d, c.columns[col])
					}
				}
				if first, last := src.Ends(); !reflect.DeepEqual(first, wantFirst) || !reflect.DeepEqual(last, wantLast) {
					t.Errorf("goroutine %d Ends() = %v, %v", g, first, last)
				}
			}
		}(g)
	}
	wg.Wait()
}
