package explore

import (
	"bytes"
	"strings"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/obs"
)

func TestSaveResumeRoundTrip(t *testing.T) {
	v := testView(t, 20000, 201)
	target := geom.R(30, 45, 50, 65)
	s, err := NewSession(v, rectOracle(target), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	beforeLabeled := s.LabeledCount()
	beforeAreas := s.RelevantAreas()
	beforeStats := s.Stats()

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Oracle of the resumed session must not be asked about already
	// labeled rows.
	oracleCalls := 0
	oracle := OracleFunc(func(view *engine.View, row int) bool {
		oracleCalls++
		return target.Contains(view.NormPoint(row))
	})
	r, err := Resume(bytes.NewReader(buf.Bytes()), v, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if r.LabeledCount() != beforeLabeled {
		t.Fatalf("restored labeled = %d, want %d", r.LabeledCount(), beforeLabeled)
	}
	if oracleCalls != 0 {
		t.Errorf("resume re-asked the oracle %d times", oracleCalls)
	}
	if got := r.Stats(); got.TotalLabeled != beforeStats.TotalLabeled ||
		got.PhaseSamples != beforeStats.PhaseSamples {
		t.Errorf("restored stats %+v, want %+v", got, beforeStats)
	}
	// Derived state (the classifier's areas) matches exactly: training is
	// deterministic over the same labeled set.
	afterAreas := r.RelevantAreas()
	if len(afterAreas) != len(beforeAreas) {
		t.Fatalf("areas %d vs %d", len(afterAreas), len(beforeAreas))
	}
	for i := range beforeAreas {
		if !afterAreas[i].Equal(beforeAreas[i]) {
			t.Errorf("area %d differs after resume", i)
		}
	}

	// The resumed session keeps exploring productively.
	for i := 0; i < 10; i++ {
		if _, err := r.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	if r.LabeledCount() <= beforeLabeled {
		t.Error("resumed session made no progress")
	}
	if oracleCalls == 0 {
		t.Error("resumed session never consulted the oracle")
	}
}

func TestResumeValidation(t *testing.T) {
	v := testView(t, 5000, 202)
	s, err := NewSession(v, rectOracle(geom.R(10, 30, 10, 30)), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunIteration(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}

	if _, err := Resume(strings.NewReader("garbage"), v, rectOracle()); err == nil {
		t.Error("garbage snapshot should error")
	}
	if _, err := Resume(bytes.NewReader(buf.Bytes()), nil, rectOracle()); err == nil {
		t.Error("nil view should error")
	}
	// Mismatched view: different row count.
	other := testView(t, 100, 203)
	if _, err := Resume(bytes.NewReader(buf.Bytes()), other, rectOracle()); err == nil {
		t.Error("mismatched view should error")
	}
	// Mismatched attrs.
	tab := dataset.GenerateUniform(5000, 3, 202)
	v3, err := engine.NewView(tab, []string{"a0", "a1", "a2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(bytes.NewReader(buf.Bytes()), v3, rectOracle()); err == nil {
		t.Error("attr mismatch should error")
	}
}

func TestSaveResumeClusterDiscovery(t *testing.T) {
	v := clusteredView(t, 10000, 204)
	opts := DefaultOptions()
	opts.Discovery = DiscoveryClustering
	s, err := NewSession(v, rectOracle(geom.R(15, 25, 15, 25)), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(bytes.NewReader(buf.Bytes()), v, rectOracle(geom.R(15, 25, 15, 25)))
	if err != nil {
		t.Fatal(err)
	}
	cd, ok := r.disc.(*clusterDiscovery)
	if !ok {
		t.Fatalf("restored discovery is %T", r.disc)
	}
	orig := s.disc.(*clusterDiscovery)
	if len(cd.levels) != len(orig.levels) {
		t.Errorf("levels %d vs %d", len(cd.levels), len(orig.levels))
	}
	if len(cd.frontier) != len(orig.frontier) || len(cd.next) != len(orig.next) {
		t.Errorf("frontier/next sizes differ: %d/%d vs %d/%d",
			len(cd.frontier), len(cd.next), len(orig.frontier), len(orig.next))
	}
	if _, err := r.RunIteration(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveResumeHybridDiscovery(t *testing.T) {
	v := clusteredView(t, 10000, 205)
	opts := DefaultOptions()
	opts.Discovery = DiscoveryHybrid
	s, err := NewSession(v, rectOracle(), opts) // nothing relevant: forces the switch eventually
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(bytes.NewReader(buf.Bytes()), v, rectOracle())
	if err != nil {
		t.Fatal(err)
	}
	hd, ok := r.disc.(*hybridDiscovery)
	if !ok {
		t.Fatalf("restored discovery is %T", r.disc)
	}
	if hd.switched != s.disc.(*hybridDiscovery).switched {
		t.Error("hybrid switch flag lost")
	}
	if _, err := r.RunIteration(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveResumeGridFrontierPreserved(t *testing.T) {
	v := testView(t, 20000, 206)
	s, err := NewSession(v, rectOracle(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunIteration(); err != nil {
		t.Fatal(err)
	}
	origFrontier := len(s.disc.(*gridDiscovery).frontier)
	origNext := len(s.disc.(*gridDiscovery).next)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(bytes.NewReader(buf.Bytes()), v, rectOracle())
	if err != nil {
		t.Fatal(err)
	}
	gd := r.disc.(*gridDiscovery)
	if len(gd.frontier) != origFrontier || len(gd.next) != origNext {
		t.Errorf("frontier/next = %d/%d, want %d/%d",
			len(gd.frontier), len(gd.next), origFrontier, origNext)
	}
}

// TestResumeSortsRestoredRowsOnce: Resume rebuilds the classifier through
// the session's cart.Set, so across the resume and the first retrain
// after it CART sorts each labelled row once per dimension, not the
// restored rows twice.
func TestResumeSortsRestoredRowsOnce(t *testing.T) {
	v := testView(t, 20000, 201)
	target := geom.R(30, 45, 50, 65)
	s, err := NewSession(v, rectOracle(target), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sorted := obs.GetCounter("cart.keys_sorted")
	before := sorted.Value()
	r, err := Resume(bytes.NewReader(buf.Bytes()), v, rectOracle(target))
	if err != nil {
		t.Fatal(err)
	}
	restored := r.LabeledCount()
	if r.RelevantAreas() == nil {
		t.Fatal("resume trained no classifier; the case no longer covers the resume retrain")
	}
	if _, err := r.RunIteration(); err != nil {
		t.Fatal(err)
	}
	got := sorted.Value() - before
	t.Logf("%d rows restored, %d after the first retrain, %d keys sorted", restored, r.LabeledCount(), got)
	if want := int64(v.Dims() * r.LabeledCount()); got != want {
		t.Errorf("keys sorted across resume and first retrain = %d, want dims × labelled rows = %d", got, want)
	}
}
