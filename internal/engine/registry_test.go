package engine

import (
	"context"
	"sync"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
)

func TestRegistrySharesViews(t *testing.T) {
	tab := dataset.GenerateSDSS(5_000, 1)
	r := NewRegistry()
	a, err := r.Acquire(tab, []string{"rowc", "colc"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Acquire(tab, []string{"rowc", "colc"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Acquire built a new view instead of sharing")
	}
	if got := r.Refs(a); got != 2 {
		t.Fatalf("refs = %d, want 2", got)
	}
	// Different attrs → different view.
	c, err := r.Acquire(tab, []string{"colc", "rowc"})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("attr order must key distinct views")
	}
	if got := r.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if !r.Release(a) || !r.Release(b) {
		t.Fatal("Release of registry views returned false")
	}
	if got := r.Len(); got != 1 {
		t.Fatalf("Len after releasing both refs = %d, want 1", got)
	}
	if r.Release(a) {
		t.Fatal("Release of a dropped view returned true")
	}
	plain, err := NewView(tab, []string{"rowc", "colc"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Release(plain) {
		t.Fatal("Release of a non-registry view returned true")
	}
}

// TestRegistrySharesAcrossTableLoads asserts two separately generated
// but content-identical tables share one view — the registry keys by
// content fingerprint, not pointer.
func TestRegistrySharesAcrossTableLoads(t *testing.T) {
	t1 := dataset.GenerateSDSS(5_000, 1)
	t2 := dataset.GenerateSDSS(5_000, 1)
	if t1 == t2 {
		t.Fatal("want distinct table pointers")
	}
	r := NewRegistry()
	a, err := r.Acquire(t1, []string{"rowc", "colc"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Acquire(t2, []string{"rowc", "colc"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("content-identical tables did not share a view")
	}
}

// TestRegistryConcurrentAcquire races many first acquirers and asserts
// they all get the same single-flighted view.
func TestRegistryConcurrentAcquire(t *testing.T) {
	tab := dataset.GenerateSDSS(10_000, 3)
	r := NewRegistry()
	const goroutines = 8
	views := make([]*View, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := r.AcquireWorkers(tab, []string{"rowc", "colc"}, 2)
			if err != nil {
				t.Error(err)
				return
			}
			views[g] = v
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if views[g] != views[0] {
			t.Fatal("concurrent acquirers got different views")
		}
	}
	if got := r.Refs(views[0]); got != goroutines {
		t.Fatalf("refs = %d, want %d", got, goroutines)
	}
	if got := r.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1 (single-flight build)", got)
	}
}

func TestRegistryAcquireError(t *testing.T) {
	tab := dataset.GenerateSDSS(1_000, 1)
	r := NewRegistry()
	if _, err := r.Acquire(tab, []string{"no_such_attr"}); err == nil {
		t.Fatal("want error for unknown attribute")
	}
	if got := r.Len(); got != 0 {
		t.Fatalf("failed build left %d entries", got)
	}
	// The key must not be poisoned: a good acquire after a bad one works.
	if _, err := r.Acquire(tab, []string{"rowc"}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprint(t *testing.T) {
	t1 := dataset.GenerateSDSS(5_000, 1)
	v1, err := NewView(t1, []string{"rowc", "colc"})
	if err != nil {
		t.Fatal(err)
	}
	// Stable across rebuilds and worker counts.
	v1b, err := NewViewWorkers(t1, []string{"rowc", "colc"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Fingerprint() == "" || v1.Fingerprint() != v1b.Fingerprint() {
		t.Fatalf("fingerprint unstable: %q vs %q", v1.Fingerprint(), v1b.Fingerprint())
	}
	// Wrappers preserve it.
	if w := v1.WithCache(NewCache(1 << 16)).WithContext(context.Background()); w.Fingerprint() != v1.Fingerprint() {
		t.Fatal("wrappers changed the fingerprint")
	}
	// Different data, row count, or attrs → different fingerprint.
	cases := map[string]*View{}
	if t2 := dataset.GenerateSDSS(5_000, 2); true {
		v, err := NewView(t2, []string{"rowc", "colc"})
		if err != nil {
			t.Fatal(err)
		}
		cases["different seed"] = v
	}
	if t3 := dataset.GenerateSDSS(6_000, 1); true {
		v, err := NewView(t3, []string{"rowc", "colc"})
		if err != nil {
			t.Fatal(err)
		}
		cases["different row count"] = v
	}
	if v, err := NewView(t1, []string{"colc", "rowc"}); err == nil {
		cases["different attr order"] = v
	} else {
		t.Fatal(err)
	}
	for name, v := range cases {
		if v.Fingerprint() == v1.Fingerprint() {
			t.Fatalf("%s: fingerprints collide", name)
		}
	}
	// Sampled views see different rows.
	s, err := v1.Sampled(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Fingerprint() == v1.Fingerprint() {
		t.Fatal("sampled view shares the full view's fingerprint")
	}
	// Identical regeneration matches (content hash, not pointer hash).
	if t1b := dataset.GenerateSDSS(5_000, 1); true {
		v, err := NewView(t1b, []string{"rowc", "colc"})
		if err != nil {
			t.Fatal(err)
		}
		if v.Fingerprint() != v1.Fingerprint() {
			t.Fatal("content-identical tables produced different fingerprints")
		}
	}
}
