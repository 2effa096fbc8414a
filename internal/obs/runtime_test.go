package obs

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
)

// TestStaticHeapPercent pins the pacer's rule over small, edge and large
// live heaps: GOGC 100 up to 64 MiB live, then the percent whose goal is
// live + 64 MiB (rounded up), floored at 10 from 640 MiB on.
func TestStaticHeapPercent(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		live uint64
		want int
	}{
		{0, 100},
		{20 * mib, 100},
		{64 * mib, 100},
		{64*mib + 1, 100},
		{65 * mib, 99},
		{128 * mib, 50},
		{301 * mib, 22},
		{639 * mib, 11},
		{640 * mib, 10},
		{641 * mib, 10},
		{8 << 30, 10},
	} {
		got := staticHeapPercent(c.live)
		if got != c.want {
			t.Errorf("staticHeapPercent(%d MiB) = %d, want %d", c.live/mib, got, c.want)
		}
		if allowance := c.live * uint64(got) / 100; c.live >= 64*mib && c.live <= 640*mib && allowance < 64*mib-1 {
			t.Errorf("live %d MiB at %d%%: allowance %d B is under 64 MiB", c.live/mib, got, allowance)
		}
	}
}

// TestPaceStaticHeap pins PaceStaticHeap's effect on the running GC: with
// neither GOGC nor GOMEMLIMIT in the environment it sets the percent
// from the live heap, and the goal becomes live·(1 + percent/100) (plus
// the GC's share of stacks and globals, under 1 MiB here, and never
// under the runtime's 4 MiB·percent/100 floor); with either set, it
// leaves the GC exactly as the operator had it.
func TestPaceStaticHeap(t *testing.T) {
	prev := debug.SetGCPercent(77)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
	for _, c := range []struct{ gogc, memlimit string }{{"", ""}, {"77", ""}, {"", "4GiB"}} {
		t.Setenv("GOGC", c.gogc)
		t.Setenv("GOMEMLIMIT", c.memlimit)
		debug.SetGCPercent(77)
		runtime.GC()
		PaceStaticHeap()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/goal:bytes"}}
		metrics.Read(s)
		live, goal, pct := s[0].Value.Uint64(), s[1].Value.Uint64(), GCPercent()
		want := 77
		if c.gogc == "" && c.memlimit == "" {
			want = staticHeapPercent(live)
		}
		if pct != want {
			t.Fatalf("GOGC=%q GOMEMLIMIT=%q: GC percent %d after PaceStaticHeap, want %d", c.gogc, c.memlimit, pct, want)
		}
		if limit := max(live+live*uint64(pct)/100+1<<20, 4<<20*uint64(pct)/100); goal > limit {
			t.Fatalf("GOGC=%q GOMEMLIMIT=%q: heap goal %d B over live %d B at %d%%, want <= %d", c.gogc, c.memlimit, goal, live, pct, limit)
		}
	}
}
