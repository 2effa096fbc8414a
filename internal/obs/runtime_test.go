package obs

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
)

// TestStaticHeapPercent pins the pacer's rule over small, edge and large
// live heaps, at a coordinator's 64 MiB floor and a worker's 4 MiB one:
// GOGC 100 up to the floor, then the percent whose goal is live + floor
// (rounded up), floored at 10 from ten floors on.
func TestStaticHeapPercent(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		live, floor uint64
		want        int
	}{
		{0, 64 * mib, 100},
		{20 * mib, 64 * mib, 100},
		{64 * mib, 64 * mib, 100},
		{64*mib + 1, 64 * mib, 100},
		{65 * mib, 64 * mib, 99},
		{128 * mib, 64 * mib, 50},
		{301 * mib, 64 * mib, 22},
		{639 * mib, 64 * mib, 11},
		{640 * mib, 64 * mib, 10},
		{641 * mib, 64 * mib, 10},
		{8 << 30, 64 * mib, 10},
		{0, 4 * mib, 100},
		{3 * mib, 4 * mib, 100},
		{8 * mib, 4 * mib, 50},
		{11 * mib, 4 * mib, 37},
		{40 * mib, 4 * mib, 10},
		{54 * mib, 4 * mib, 10},
	} {
		got := staticHeapPercent(c.live, c.floor)
		if got != c.want {
			t.Errorf("staticHeapPercent(%d MiB, floor %d MiB) = %d, want %d", c.live/mib, c.floor/mib, got, c.want)
		}
		if allowance := c.live * uint64(got) / 100; c.live >= c.floor && c.live <= 10*c.floor && allowance < c.floor-1 {
			t.Errorf("live %d MiB at %d%%: allowance %d B is under the %d MiB floor", c.live/mib, got, allowance, c.floor/mib)
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
	for _, c := range []struct {
		gogc, memlimit string
		floor          uint64
	}{{"", "", 64 << 20}, {"", "", 4 << 20}, {"77", "", 4 << 20}, {"", "4GiB", 4 << 20}} {
		t.Setenv("GOGC", c.gogc)
		t.Setenv("GOMEMLIMIT", c.memlimit)
		debug.SetGCPercent(77)
		runtime.GC()
		PaceStaticHeap(c.floor)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/goal:bytes"}}
		metrics.Read(s)
		live, goal, pct := s[0].Value.Uint64(), s[1].Value.Uint64(), GCPercent()
		want := 77
		if c.gogc == "" && c.memlimit == "" {
			want = staticHeapPercent(live, c.floor)
		}
		if pct != want {
			t.Fatalf("GOGC=%q GOMEMLIMIT=%q: GC percent %d after PaceStaticHeap, want %d", c.gogc, c.memlimit, pct, want)
		}
		if limit := max(live+live*uint64(pct)/100+1<<20, 4<<20*uint64(pct)/100); goal > limit {
			t.Fatalf("GOGC=%q GOMEMLIMIT=%q: heap goal %d B over live %d B at %d%%, want <= %d", c.gogc, c.memlimit, goal, live, pct, limit)
		}
	}
}
