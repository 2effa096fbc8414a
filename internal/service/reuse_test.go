package service

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/durable"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
)

// TestRegisterTableSharesViewsAndCaches asserts two servers registering
// the same data through one registry share a single underlying view,
// that each gets a predicate cache when CacheBytes is set, and that
// Close releases what RegisterTable acquired.
func TestRegisterTableSharesViewsAndCaches(t *testing.T) {
	reg := engine.NewRegistry()
	tab := dataset.GenerateUniform(10_000, 2, 1)

	s1 := NewServer(nil)
	s1.Registry = reg
	s1.CacheBytes = 1 << 20
	if err := s1.RegisterTable("uniform", tab, []string{"a0", "a1"}); err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(nil)
	s2.Registry = reg
	if err := s2.RegisterTable("uniform", tab, []string{"a0", "a1"}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Len(); got != 1 {
		t.Fatalf("two servers over the same data hold %d registry views, want 1", got)
	}
	v1, v2 := s1.views["uniform"], s2.views["uniform"]
	if v1 == nil || v2 == nil {
		t.Fatal("RegisterTable did not register the view")
	}
	if v1.Fingerprint() != v2.Fingerprint() {
		t.Fatal("shared registrations disagree on fingerprint")
	}
	if v1.Cache() == nil {
		t.Fatal("CacheBytes > 0 did not attach a cache")
	}
	if v2.Cache() != nil {
		t.Fatal("CacheBytes == 0 attached a cache")
	}
	if err := s1.RegisterTable("uniform", tab, []string{"a0", "a1"}); err == nil {
		t.Fatal("duplicate name registration succeeded")
	}
	s1.Close()
	if got := reg.Len(); got != 1 {
		t.Fatalf("after one server closed, registry has %d views, want 1", got)
	}
	s2.Close()
	if got := reg.Len(); got != 0 {
		t.Fatalf("after both servers closed, registry has %d views, want 0", got)
	}
	s2.Close() // idempotent
}

// TestRecoverRefusesChangedData asserts crash recovery refuses to replay
// a WAL against a view whose data content changed since the session was
// created — replay over different rows would silently produce garbage
// predicates — while the log itself survives for a server with the
// original data.
func TestRecoverRefusesChangedData(t *testing.T) {
	dir := t.TempDir()
	target := geom.R(30, 45, 50, 65)
	req := CreateSessionRequest{
		View:                "uniform",
		Seed:                7,
		SamplesPerIteration: 10,
		MaxIterations:       12,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))

	// Phase 1: explore partway over seed-1 data, then "crash".
	vA := uniformView(t, 1)
	mA, err := durable.NewManager(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	srvA := NewServer(map[string]*engine.View{"uniform": vA})
	srvA.SampleWait = 5 * time.Second
	srvA.Durable = mA
	tsA := httptest.NewServer(srvA)
	cA := NewClient(tsA.URL, nil)
	id, err := cA.CreateSession(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if n := labelLoop(t, cA, ctx, id, vA, target, 15); n != 15 {
		t.Fatalf("labeled %d before crash, want 15", n)
	}
	tsA.Close()

	// Phase 2: a server whose "uniform" view holds different data must
	// skip the session, not replay it.
	vB := uniformView(t, 2)
	mB, err := durable.NewManager(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	srvB := NewServer(map[string]*engine.View{"uniform": vB})
	srvB.Durable = mB
	if n, err := srvB.RecoverSessions(discard); err != nil || n != 0 {
		t.Fatalf("RecoverSessions over changed data = %d, %v; want 0 skipped", n, err)
	}

	// Phase 3: the skipped log is intact; the original data recovers it.
	vC := uniformView(t, 1)
	mC, err := durable.NewManager(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	srvC := NewServer(map[string]*engine.View{"uniform": vC})
	srvC.SampleWait = 5 * time.Second
	srvC.Durable = mC
	if n, err := srvC.RecoverSessions(discard); err != nil || n != 1 {
		t.Fatalf("RecoverSessions over original data = %d, %v; want 1", n, err)
	}
}
