package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"github.com/explore-by-example/aide/internal/dataset"
)

// TableFingerprint returns a cheap content hash identifying a table: its
// name, schema (column names and domains), row count, and the values of
// the first and last rows. It is O(columns), not O(rows) — enough to
// tell "same dataset" from "different dataset" for registry keying and
// WAL-recovery sanity checks, not a cryptographic digest. Tables with
// equal fingerprints are treated as interchangeable by the view
// registry.
func TableFingerprint(src dataset.Source) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w64 := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	io.WriteString(h, src.Name())
	h.Write([]byte{0})
	for _, col := range src.Schema() {
		io.WriteString(h, col.Name)
		h.Write([]byte{0})
		wf(col.Min)
		wf(col.Max)
	}
	w64(uint64(src.NumRows()))
	first, last := src.Ends()
	for _, v := range first {
		wf(v)
	}
	for _, v := range last {
		wf(v)
	}
	return h.Sum64()
}

// ViewFingerprint is the Fingerprint of a view over attrs of src,
// without building it: the table fingerprint combined with the ordered
// exploration attributes, so two views agree iff they project the same
// data onto the same attributes.
func ViewFingerprint(src dataset.Source, attrs []string) string {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], TableFingerprint(src))
	h.Write(b[:])
	for _, a := range attrs {
		io.WriteString(h, a)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("aide-fp1-%016x", h.Sum64())
}

// Fingerprint returns a stable content hash of the view: table identity
// (name, schema, row count, first/last rows) plus the ordered
// exploration attributes. The service writes it into each session's WAL
// create record and asserts it on recovery, so a resurrected session
// never silently binds to a different dataset; the view registry keys
// shared views by the same table hash. Worker knobs, contexts, caches
// and scan buffers do not affect the fingerprint.
func (v *View) Fingerprint() string { return v.fp }
