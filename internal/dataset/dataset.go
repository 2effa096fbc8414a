// Package dataset provides the in-memory tables AIDE explores and
// deterministic synthetic generators standing in for the paper's SDSS
// PhotoObjAll and AuctionMark ITEM datasets.
//
// Tables are stored column-major: each attribute is one contiguous
// []float64. This mirrors the access pattern of AIDE's sample-extraction
// queries, which touch only the handful of exploration attributes (the
// paper always runs with a covering index so queries never read full
// rows).
package dataset

import (
	"fmt"
	"math"
	"sort"

	"github.com/explore-by-example/aide/internal/geom"
)

// Column describes one attribute of a table.
type Column struct {
	// Name is the attribute name, e.g. "rowc".
	Name string
	// Min and Max are the attribute's domain bounds used for
	// normalization. They are fixed per schema (not recomputed from data)
	// so that sampled datasets keep the same normalized space.
	Min, Max float64
}

// Schema is an ordered list of columns.
type Schema []Column

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// ColumnIndexes resolves column names to indexes, failing on unknown
// names.
func (s Schema) ColumnIndexes(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		idx := s.Index(n)
		if idx < 0 {
			return nil, fmt.Errorf("dataset: unknown column %q (have %v)", n, s.Names())
		}
		out[i] = idx
	}
	return out, nil
}

// Normalizer builds a geom.Normalizer over the given columns using the
// schema's declared domains.
func (s Schema) Normalizer(cols []int) (*geom.Normalizer, error) {
	mins := make([]float64, len(cols))
	maxs := make([]float64, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(s) {
			return nil, fmt.Errorf("dataset: column index %d out of range", c)
		}
		mins[i] = s[c].Min
		maxs[i] = s[c].Max
	}
	return geom.NewNormalizer(mins, maxs)
}

// Source is a re-runnable stream of a table's rows: what a consumer that
// needs a few columns of each row once, in row order, reads instead of
// holding the whole table. *Table is one; SDSSSource replays
// GenerateSDSS's rows without storing them.
type Source interface {
	Name() string
	Schema() Schema
	NumRows() int
	// Scan calls fn once per row, in row order, with vals[i] the row's
	// value of column cols[i]. vals is reused between calls; fn must not
	// keep it. Every Scan yields the same values.
	Scan(cols []int, fn func(row int, vals []float64))
	// Ends returns the first and last rows over every column (nil when
	// there are no rows): what a table fingerprint hashes.
	Ends() (first, last geom.Point)
}

// Table is an immutable column-major table. Build one with NewTable or a
// Builder; after construction the data must not be mutated (the query
// engine builds indexes over it).
type Table struct {
	name   string
	schema Schema
	cols   [][]float64
	rows   int
}

// NewTable constructs a table from column-major data. Every column slice
// must have the same length. The column data is used directly (not
// copied); callers must not mutate it afterwards.
func NewTable(name string, schema Schema, cols [][]float64) (*Table, error) {
	if len(cols) != len(schema) {
		return nil, fmt.Errorf("dataset: %d columns for %d schema entries", len(cols), len(schema))
	}
	rows := 0
	if len(cols) > 0 {
		rows = len(cols[0])
	}
	for i, c := range cols {
		if len(c) != rows {
			return nil, fmt.Errorf("dataset: column %q has %d rows, want %d", schema[i].Name, len(c), rows)
		}
	}
	return &Table{name: name, schema: schema, cols: cols, rows: rows}, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// Value returns the value at (row, col).
func (t *Table) Value(row, col int) float64 { return t.cols[col][row] }

// Col returns the backing slice for a column. Callers must treat it as
// read-only.
func (t *Table) Col(col int) []float64 { return t.cols[col] }

// Scan implements Source over the table's columns.
func (t *Table) Scan(cols []int, fn func(row int, vals []float64)) {
	vals := make([]float64, len(cols))
	for r := 0; r < t.rows; r++ {
		for i, c := range cols {
			vals[i] = t.cols[c][r]
		}
		fn(r, vals)
	}
}

// Ends implements Source.
func (t *Table) Ends() (first, last geom.Point) {
	if t.rows == 0 {
		return nil, nil
	}
	return t.Row(0), t.Row(t.rows - 1)
}

// Row materializes one row as a point over all columns.
func (t *Table) Row(row int) geom.Point {
	p := make(geom.Point, len(t.cols))
	for c := range t.cols {
		p[c] = t.cols[c][row]
	}
	return p
}

// Project materializes one row restricted to the given column indexes.
func (t *Table) Project(row int, cols []int) geom.Point {
	p := make(geom.Point, len(cols))
	for i, c := range cols {
		p[i] = t.cols[c][row]
	}
	return p
}

// Normalizer is Schema().Normalizer.
func (t *Table) Normalizer(cols []int) (*geom.Normalizer, error) { return t.schema.Normalizer(cols) }

// ColumnIndexes is Schema().ColumnIndexes.
func (t *Table) ColumnIndexes(names []string) ([]int, error) { return t.schema.ColumnIndexes(names) }

// Subset returns a new table containing the given rows (in order). Used by
// the engine's sampled-dataset support (Section 5.2 of the paper).
func (t *Table) Subset(name string, rows []int) *Table {
	cols := make([][]float64, len(t.cols))
	for c := range t.cols {
		col := make([]float64, len(rows))
		src := t.cols[c]
		for i, r := range rows {
			col[i] = src[r]
		}
		cols[c] = col
	}
	return &Table{name: name, schema: t.schema, cols: cols, rows: len(rows)}
}

// Stats summarizes one column: min, max, mean, and standard deviation of
// the actual data (as opposed to the declared domain).
type Stats struct {
	Min, Max, Mean, Std float64
}

// ColumnStats computes Stats for a column. It returns zeros for an empty
// table.
func (t *Table) ColumnStats(col int) Stats {
	data := t.cols[col]
	if len(data) == 0 {
		return Stats{}
	}
	s := Stats{Min: data[0], Max: data[0]}
	var sum, sumSq float64
	for _, v := range data {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
		sumSq += v * v
	}
	n := float64(len(data))
	s.Mean = sum / n
	variance := sumSq/n - s.Mean*s.Mean
	if variance > 0 {
		s.Std = math.Sqrt(variance)
	}
	return s
}

// Builder accumulates rows and produces a Table. It is convenient for
// generators and tests; hot paths should construct columns directly.
type Builder struct {
	name   string
	schema Schema
	cols   [][]float64
}

// NewBuilder creates a builder for the given schema.
func NewBuilder(name string, schema Schema) *Builder {
	cols := make([][]float64, len(schema))
	return &Builder{name: name, schema: schema, cols: cols}
}

// Add appends one row. It panics if the value count mismatches the schema;
// that is a programming error, not a data error.
func (b *Builder) Add(values ...float64) {
	if len(values) != len(b.schema) {
		panic(fmt.Sprintf("dataset: Add got %d values for %d columns", len(values), len(b.schema)))
	}
	for i, v := range values {
		b.cols[i] = append(b.cols[i], v)
	}
}

// Build finalizes the table. The builder must not be reused afterwards.
func (b *Builder) Build() *Table {
	t, err := NewTable(b.name, b.schema, b.cols)
	if err != nil {
		// NewTable only fails on shape mismatches, which Add prevents.
		panic(err)
	}
	return t
}

// SortedIndex returns row indexes ordered by ascending column value, the
// building block for the engine's per-attribute sorted (covering)
// indexes.
func (t *Table) SortedIndex(col int) []int {
	idx := make([]int, t.rows)
	for i := range idx {
		idx[i] = i
	}
	data := t.cols[col]
	sort.Slice(idx, func(a, b int) bool { return data[idx[a]] < data[idx[b]] })
	return idx
}

// Histogram counts the column's values in bins equal-width buckets over
// the declared domain. Values outside the domain clamp into the edge
// buckets; a degenerate (constant) domain puts everything in bucket 0.
// Useful for skew inspection and terminal visualization.
func (t *Table) Histogram(col, bins int) []int {
	if bins <= 0 {
		return nil
	}
	out := make([]int, bins)
	c := t.schema[col]
	width := (c.Max - c.Min) / float64(bins)
	for _, v := range t.cols[col] {
		b := 0
		if width > 0 {
			b = int((v - c.Min) / width)
		}
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		out[b]++
	}
	return out
}
