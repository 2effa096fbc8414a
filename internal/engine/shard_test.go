package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/faultinject"
	"github.com/explore-by-example/aide/internal/geom"
)

// shardCounts is the shard-count matrix every bit-identity assertion
// pins, matching the golden tests in internal/eval.
var shardCounts = []int{1, 2, 4, 8}

// singleDimRects yields rects constrained in exactly one dimension —
// the SampleRect covering-index fast path.
func singleDimRects(n, d int, rng *rand.Rand) []geom.Rect {
	out := make([]geom.Rect, 0, n)
	for i := 0; i < n; i++ {
		r := make(geom.Rect, d)
		for j := range r {
			r[j] = geom.Interval{Lo: geom.NormMin, Hi: geom.NormMax}
		}
		lo := rng.Float64() * 80
		r[i%d] = geom.Interval{Lo: lo, Hi: lo + 5 + rng.Float64()*15}
		out = append(out, r)
	}
	return out
}

func TestShardedBitIdenticalToUnsharded(t *testing.T) {
	tab := dataset.GenerateSDSS(20_000, 7)
	attrs := []string{"rowc", "colc"}
	base, err := NewViewWorkers(tab, attrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	rects := append(randomRects(40, 2, rng), singleDimRects(10, 2, rng)...)
	for _, shards := range shardCounts {
		sv := base.WithShards(ShardOptions{Shards: shards})
		if sv.ShardCount() != shards {
			t.Fatalf("ShardCount = %d, want %d", sv.ShardCount(), shards)
		}
		if sv.Fingerprint() != base.Fingerprint() {
			t.Fatalf("shards=%d changed the fingerprint", shards)
		}
		for ri, rect := range rects {
			if got, want := sv.Count(rect), base.Count(rect); got != want {
				t.Fatalf("shards=%d rect %d: Count = %d, want %d", shards, ri, got, want)
			}
			if got, want := sv.RowsIn(rect), base.RowsIn(rect); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d rect %d: RowsIn differs (%d vs %d rows)", shards, ri, len(got), len(want))
			}
			ra := rand.New(rand.NewSource(int64(ri) + 100))
			rb := rand.New(rand.NewSource(int64(ri) + 100))
			if got, want := sv.SampleRect(rect, 17, ra), base.SampleRect(rect, 17, rb); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d rect %d: SampleRect differs\n got %v\nwant %v", shards, ri, got, want)
			}
		}
		for i := 0; i+2 < len(rects); i += 3 {
			set := rects[i : i+3]
			if got, want := sv.RowsInAny(set), base.RowsInAny(set); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d: RowsInAny differs at %d", shards, i)
			}
		}
	}
}

func TestShardedCacheBitIdentical(t *testing.T) {
	tab := dataset.GenerateSDSS(10_000, 3)
	base, err := NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sv := base.WithShards(ShardOptions{Shards: 4}).WithCache(NewCache(1 << 20))
	rng := rand.New(rand.NewSource(5))
	rects := randomRects(20, 2, rng)
	for ri, rect := range rects {
		c1, r1 := sv.Count(rect), sv.RowsIn(rect)
		c2, r2 := sv.Count(rect), sv.RowsIn(rect) // second round answered from the per-shard cache partitions
		if c1 != c2 || !reflect.DeepEqual(r1, r2) {
			t.Fatalf("rect %d: cached shard results differ", ri)
		}
		if want := base.Count(rect); c2 != want {
			t.Fatalf("rect %d: cached sharded Count = %d, want %d", ri, c2, want)
		}
	}
	if st := sv.Cache().Stats(); st.Hits == 0 {
		t.Fatal("per-shard cache partitions never hit")
	}
}

// shardedPair returns a 4-shard view over a small SDSS table plus the
// expected total row count.
func shardedPair(t *testing.T, opts ShardOptions) *View {
	t.Helper()
	tab := dataset.GenerateSDSS(8_000, 9)
	base, err := NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return base.WithShards(opts)
}

func TestShardPartialDegradationAndExactAPIs(t *testing.T) {
	sv := shardedPair(t, ShardOptions{Shards: 4})
	sv, tracker := sv.WithShardTracker()
	full := geom.R(0, 100, 0, 100)
	wantTotal := sv.NumRows()

	// Fault-free: exact, no degradation.
	n, err := sv.CountExact(full)
	if err != nil || n != wantTotal {
		t.Fatalf("fault-free CountExact = (%d, %v), want (%d, nil)", n, err, wantTotal)
	}
	if name, partial := tracker.Drain(); partial {
		t.Fatalf("fault-free run recorded degradation %q", name)
	}

	// Shard 2 hard-fails: partial results with the named degradation,
	// ErrPartialResult from the exact variants — never a silent answer.
	faultinject.Activate(faultinject.New(faultinject.Config{
		Seed: 1, ErrorRate: 1,
		Points: []string{faultinject.PointAt(FaultShardScan, 2)},
	}))
	defer faultinject.Deactivate()

	shard2Rows := sv.shards.shards[2].nrows
	got := sv.Count(full)
	if want := wantTotal - shard2Rows; got != want {
		t.Fatalf("degraded Count = %d, want %d (total %d minus shard 2's %d)", got, want, wantTotal, shard2Rows)
	}
	name, partial := tracker.Drain()
	if !partial || name != "shard_partial:3/4" {
		t.Fatalf("Drain = (%q, %v), want (shard_partial:3/4, true)", name, partial)
	}
	if _, err := sv.CountExact(full); !errors.Is(err, ErrPartialResult) {
		t.Fatalf("CountExact under shard failure = %v, want ErrPartialResult", err)
	}
	if _, err := sv.RowsInExact(full); !errors.Is(err, ErrPartialResult) {
		t.Fatalf("RowsInExact under shard failure = %v, want ErrPartialResult", err)
	}
	if tracker.Err() == nil {
		t.Fatal("tracker.Err() = nil with partials pending")
	}
	tracker.Drain()

	rows := sv.RowsIn(full)
	if len(rows) != wantTotal-shard2Rows {
		t.Fatalf("degraded RowsIn returned %d rows, want %d", len(rows), wantTotal-shard2Rows)
	}
}

func TestSupervisorTransitionsDeterministic(t *testing.T) {
	run := func() ([]ShardTransition, []string) {
		sv := shardedPair(t, ShardOptions{Shards: 4, CooldownOps: 3})
		full := geom.R(0, 100, 0, 100)
		want := sv.NumRows()
		faultinject.Activate(faultinject.New(faultinject.Config{
			Seed: 42, ErrorRate: 1,
			Points: []string{faultinject.PointAt(FaultShardScan, 1)},
		}))
		// Ops 1-2: shard 1 fails (both attempts) -> suspect -> quarantined.
		sv.Count(full)
		sv.Count(full)
		if st := sv.shards.sup.state(1); st != ShardQuarantined {
			t.Fatalf("after 2 failed ops shard 1 = %v, want quarantined", st)
		}
		// Ops 3-4: quarantined, skipped without attempting.
		sv.Count(full)
		sv.Count(full)
		// Faults clear; op 5 admits the recovery probe (tick 5 - tick 2 >= 3).
		faultinject.Deactivate()
		if got := sv.Count(full); got != want {
			t.Fatalf("post-recovery Count = %d, want %d", got, want)
		}
		if st := sv.shards.sup.state(1); st != ShardHealthy {
			t.Fatalf("after successful probe shard 1 = %v, want healthy", st)
		}
		var states []string
		for _, h := range sv.ShardHealth() {
			states = append(states, h.State)
		}
		return sv.ShardTransitions(), states
	}
	log1, states1 := run()
	log2, states2 := run()
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("transition logs differ between identically seeded runs:\n%v\n%v", log1, log2)
	}
	if !reflect.DeepEqual(states1, states2) {
		t.Fatalf("health snapshots differ: %v vs %v", states1, states2)
	}
	wantLog := []ShardTransition{
		{Tick: 1, Shard: 1, From: ShardHealthy, To: ShardSuspect},
		{Tick: 2, Shard: 1, From: ShardSuspect, To: ShardQuarantined},
		{Tick: 5, Shard: 1, From: ShardQuarantined, To: ShardRecovering},
		{Tick: 5, Shard: 1, From: ShardRecovering, To: ShardHealthy},
	}
	if !reflect.DeepEqual(log1, wantLog) {
		t.Fatalf("transition log = %v, want %v", log1, wantLog)
	}
}

func TestShardProbeFailureRequarantines(t *testing.T) {
	sv := shardedPair(t, ShardOptions{Shards: 2, CooldownOps: 2})
	full := geom.R(0, 100, 0, 100)
	faultinject.Activate(faultinject.New(faultinject.Config{
		Seed: 3, ErrorRate: 1,
		Points: []string{faultinject.PointAt(FaultShardScan, 0)},
	}))
	defer faultinject.Deactivate()
	for i := 0; i < 5; i++ { // quarantine at op 2, probe fails at op 4, re-quarantine
		sv.Count(full)
	}
	log := sv.ShardTransitions()
	want := []ShardTransition{
		{Tick: 1, Shard: 0, From: ShardHealthy, To: ShardSuspect},
		{Tick: 2, Shard: 0, From: ShardSuspect, To: ShardQuarantined},
		{Tick: 4, Shard: 0, From: ShardQuarantined, To: ShardRecovering},
		{Tick: 4, Shard: 0, From: ShardRecovering, To: ShardQuarantined},
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("transition log = %v, want %v", log, want)
	}
}

func TestShardPanicIsolation(t *testing.T) {
	sv := shardedPair(t, ShardOptions{Shards: 4})
	sv, tracker := sv.WithShardTracker()
	full := geom.R(0, 100, 0, 100)
	// Budget 2 covers both sequential attempts of shard 3's first op:
	// the injected panics must become that shard's failure, not the
	// query's.
	faultinject.Activate(faultinject.New(faultinject.Config{
		Seed: 1, PanicBudget: 2,
		Points: []string{faultinject.PointAt(FaultShardScan, 3)},
	}))
	defer faultinject.Deactivate()
	got := sv.Count(full)
	if want := sv.NumRows() - sv.shards.shards[3].nrows; got != want {
		t.Fatalf("Count with panicking shard = %d, want %d", got, want)
	}
	if name, partial := tracker.Drain(); !partial || name != "shard_partial:3/4" {
		t.Fatalf("panic isolation recorded (%q, %v)", name, partial)
	}
	// Budget exhausted: the next op is served in full and heals the shard.
	if got := sv.Count(full); got != sv.NumRows() {
		t.Fatalf("post-budget Count = %d, want %d", got, sv.NumRows())
	}
	if st := sv.shards.sup.state(3); st != ShardHealthy {
		t.Fatalf("shard 3 = %v after successful op, want healthy", st)
	}
}

func TestShardLatencyInjectionKeepsResultsIdentical(t *testing.T) {
	tab := dataset.GenerateSDSS(6_000, 5)
	base, err := NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, 0, 8)
	rng := rand.New(rand.NewSource(2))
	rects := randomRects(8, 2, rng)
	for _, r := range rects {
		want = append(want, base.Count(r))
	}
	// Latency plus hedging: straggler shards get a hedged second
	// attempt, and whichever attempt wins must produce the identical
	// result — latency never changes bits.
	sv := base.WithShards(ShardOptions{Shards: 4, HedgeAfter: 2 * time.Millisecond})
	faultinject.Activate(faultinject.New(faultinject.Config{
		Seed: 9, LatencyRate: 0.5, Latency: 5 * time.Millisecond,
		Points: []string{FaultShardScan},
	}))
	defer faultinject.Deactivate()
	for i, r := range rects {
		if got := sv.Count(r); got != want[i] {
			t.Fatalf("rect %d: Count under latency+hedge = %d, want %d", i, got, want[i])
		}
	}
}

func TestShardDeadlineDegradesAndRecovers(t *testing.T) {
	sv := shardedPair(t, ShardOptions{Shards: 2, Deadline: 3 * time.Millisecond, CooldownOps: 1})
	sv, tracker := sv.WithShardTracker()
	full := geom.R(0, 100, 0, 100)
	faultinject.Activate(faultinject.New(faultinject.Config{
		Seed: 4, LatencyRate: 1, Latency: 50 * time.Millisecond,
		Points: []string{faultinject.PointAt(FaultShardScan, 1)},
	}))
	got := sv.Count(full)
	if want := sv.NumRows() - sv.shards.shards[1].nrows; got != want {
		t.Fatalf("Count with shard past deadline = %d, want %d", got, want)
	}
	if name, partial := tracker.Drain(); !partial || name != "shard_partial:1/2" {
		t.Fatalf("deadline degradation = (%q, %v)", name, partial)
	}
	faultinject.Deactivate()
	// Drive the supervisor through quarantine and recovery.
	for i := 0; i < 6 && sv.shards.sup.state(1) != ShardHealthy; i++ {
		sv.Count(full)
	}
	if got := sv.Count(full); got != sv.NumRows() {
		t.Fatalf("post-recovery Count = %d, want %d", got, sv.NumRows())
	}
}

func TestShardedCancellationRecordsNothing(t *testing.T) {
	sv := shardedPair(t, ShardOptions{Shards: 4})
	sv, tracker := sv.WithShardTracker()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cv := sv.WithContext(ctx)
	if rows := cv.RowsIn(geom.R(0, 100, 0, 100)); rows != nil {
		t.Fatalf("cancelled sharded RowsIn returned %d rows", len(rows))
	}
	if name, partial := tracker.Drain(); partial {
		t.Fatalf("cancelled scan recorded degradation %q", name)
	}
	for _, h := range cv.ShardHealth() {
		if h.State != "healthy" {
			t.Fatalf("cancelled scan moved shard %d to %s", h.Index, h.State)
		}
	}
}

func TestWithShardsZeroIsUnsharded(t *testing.T) {
	v := latticeView(t)
	c := v.WithShards(ShardOptions{Shards: 0})
	if c.ShardCount() != 0 || c.ShardHealth() != nil || c.ShardTransitions() != nil {
		t.Fatal("Shards=0 must stay unsharded")
	}
	if got := c.Count(geom.R(0, 50, 0, 50)); got != v.Count(geom.R(0, 50, 0, 50)) {
		t.Fatal("unsharded copy diverged")
	}
}

func TestShardsExceedRows(t *testing.T) {
	// More shards than meaningfully splittable data: empty shards must
	// scatter/gather cleanly.
	schema := dataset.Schema{{Name: "x", Min: 0, Max: 9}, {Name: "y", Min: 0, Max: 9}}
	b := dataset.NewBuilder("tiny", schema)
	b.Add(1, 1)
	b.Add(8, 8)
	v, err := NewView(b.Build(), []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	sv := v.WithShards(ShardOptions{Shards: 4})
	full := geom.R(0, 100, 0, 100)
	if got := sv.Count(full); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	if got := sv.RowsIn(full); !reflect.DeepEqual(got, v.RowsIn(full)) {
		t.Fatalf("RowsIn = %v", got)
	}
}

func TestAcquireShardedWorkersSharesAndFingerprints(t *testing.T) {
	r := NewRegistry()
	tab := dataset.GenerateSDSS(5_000, 1)
	attrs := []string{"rowc", "colc"}
	plain, err := r.Acquire(tab, attrs)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := r.AcquireSharded(tab, attrs, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.AcquireSharded(tab, attrs, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("same (table, attrs, shards) must share one view")
	}
	if s1 == plain {
		t.Fatal("sharded and unsharded acquisitions must be distinct entries")
	}
	if s1.Fingerprint() != plain.Fingerprint() {
		t.Fatal("shard count changed the content fingerprint")
	}
	if r.Len() != 2 {
		t.Fatalf("registry holds %d entries, want 2", r.Len())
	}
	r.Release(s1)
	r.Release(s2)
	r.Release(plain)
	if r.Len() != 0 {
		t.Fatalf("registry holds %d entries after release", r.Len())
	}
}

// TestNewRemoteViewContract pins what a view with no local grid is: it
// needs a backend for every shard, keeps the built view's fingerprint
// (so WALs and the shard hello match across topologies), holds the
// covering index but no grid or partitions, and refuses loudly to be
// re-sharded or to hand out local shards it does not have.
func TestNewRemoteViewContract(t *testing.T) {
	tab := dataset.GenerateSDSS(5_000, 1)
	attrs := []string{"rowc", "colc"}
	base, err := NewViewWorkers(tab, attrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	local := base.WithShards(ShardOptions{Shards: 2}).LocalShardBackends()
	for name, backends := range map[string]map[int]ShardBackend{
		"missing shard": {0: local[0]},
		"nil backend":   {0: local[0], 1: nil},
		"out of range":  {0: local[0], 2: local[1]},
		"extra backend": {0: local[0], 1: local[1], 2: local[1]},
	} {
		if _, err := NewRemoteView(tab, attrs, ShardOptions{Shards: 2}, backends); err == nil {
			t.Errorf("%s: NewRemoteView succeeded", name)
		}
	}
	if _, err := NewRemoteView(tab, attrs, ShardOptions{}, nil); err == nil {
		t.Error("zero shards: NewRemoteView succeeded")
	}

	rv, err := NewRemoteView(tab, attrs, ShardOptions{Shards: 2}, map[int]ShardBackend{0: local[0], 1: local[1]})
	if err != nil {
		t.Fatal(err)
	}
	if rv.Fingerprint() != base.Fingerprint() || rv.Fingerprint() != ViewFingerprint(tab, attrs) {
		t.Fatalf("fingerprints: remote %s, built %s, computed %s", rv.Fingerprint(), base.Fingerprint(), ViewFingerprint(tab, attrs))
	}
	if rv.LocalIndex() || rv.grid != nil || rv.sorted == nil || rv.shards.shards != nil || !base.LocalIndex() {
		t.Fatal("a remote view holds a grid or partitions, or no covering index")
	}
	for i, h := range rv.ShardHealth() {
		if !h.Remote || h.Rows != local[i].NumRows() {
			t.Fatalf("shard %d health %+v", i, h)
		}
	}
	full := geom.R(0, 100, 0, 100)
	if got, want := rv.RowsIn(full), base.RowsIn(full); !reflect.DeepEqual(got, want) {
		t.Fatal("remote view RowsIn differs from the built view")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a remote view did not panic", name)
			}
		}()
		f()
	}
	mustPanic("WithShards", func() { rv.WithShards(ShardOptions{Shards: 2}) })
	mustPanic("WithShards(0)", func() { rv.WithShards(ShardOptions{}) })
	mustPanic("LocalShardBackends", func() { rv.LocalShardBackends() })
}

// TestCoveringIndexBuildsAgree pins the one covering-index build: a
// NewRemoteView builds exactly the index NewViewWorkers does at any
// worker count, and that index holds the covering index's order as
// spelled out with float comparisons — every row once, ascending value
// with −0 equal to +0, NaNs after every number, ties by ascending row id
// — on tables of 0, 1 and more rows with NaNs, signed zeros and ties.
func TestCoveringIndexBuildsAgree(t *testing.T) {
	precedes := func(va, vb float64, a, b int32) bool {
		switch {
		case math.IsNaN(va) || math.IsNaN(vb):
			if !math.IsNaN(vb) || !math.IsNaN(va) {
				return !math.IsNaN(va)
			}
		case va != vb:
			return va < vb
		}
		return a < b
	}
	rng := rand.New(rand.NewSource(37))
	alphabet := []float64{math.NaN(), math.Copysign(0, -1), 0, 25, 50, 100}
	negZeros := 0
	for trial := 0; trial < 40; trial++ {
		rows := []int{0, 1, 2, 70, 3000}[trial%5]
		schema := dataset.Schema{{Name: "a", Min: 0, Max: 100}, {Name: "b", Min: 0, Max: 100}}
		b := dataset.NewBuilder("covering", schema)
		for r := 0; r < rows; r++ {
			vals := make([]float64, len(schema))
			for j := range vals {
				if vals[j] = rng.Float64() * 100; rng.Intn(2) == 0 {
					vals[j] = alphabet[rng.Intn(len(alphabet))]
				}
			}
			b.Add(vals...)
		}
		tab := b.Build()
		attrs := schema.Names()
		local, err := NewViewWorkers(tab, attrs, 1+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := NewRemoteView(tab, attrs, ShardOptions{Shards: 2}, map[int]ShardBackend{0: &localShard{}, 1: &localShard{}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(remote.sorted, local.sorted) {
			t.Fatalf("trial %d (%d rows): NewRemoteView's covering index differs from NewViewWorkers'", trial, rows)
		}
		for d, idx := range local.sorted {
			seen := make([]bool, rows)
			for i, r := range idx {
				if seen[r] {
					t.Fatalf("trial %d dim %d: row %d indexed twice", trial, d, r)
				}
				seen[r] = true
				x := local.normAt(d, int(r))
				if x == 0 && math.Signbit(x) {
					negZeros++
				}
				if i == 0 {
					continue
				}
				if p, px := idx[i-1], local.normAt(d, int(idx[i-1])); !precedes(px, x, p, r) {
					t.Fatalf("trial %d dim %d: row %d (%v) sorted before row %d (%v)", trial, d, p, px, r, x)
				}
			}
			if len(idx) != rows {
				t.Fatalf("trial %d dim %d: %d of %d rows indexed", trial, d, len(idx), rows)
			}
		}
	}
	if negZeros == 0 {
		t.Fatal("no normalized −0 reached the index")
	}
}

// TestIndexSampleSendsNoShardItems pins that covering-index samples
// resolve from the view's own index: under a sharded view whose every
// backend counts its calls, a batch of nothing but index-path samples
// calls no backend and draws the unsharded sample, while one grid-path
// item makes the batch one call per shard.
func TestIndexSampleSendsNoShardItems(t *testing.T) {
	base, err := NewViewWorkers(dataset.GenerateSDSS(10_000, 3), []string{"rowc", "colc", "ra"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base.WithShards(ShardOptions{Shards: 3})
	counted := make(map[int]ShardBackend)
	calls := make([]int, 3)
	for i, b := range sharded.LocalShardBackends() {
		counted[i] = &countingShard{ShardBackend: b, calls: &calls[i]}
	}
	remote, err := NewRemoteView(base.Table(), base.Attrs(), ShardOptions{Shards: 3}, counted)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := sharded.WithShardBackends(counted)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	var queries []BatchQuery
	for _, rect := range singleDimRects(8, 3, rng) {
		queries = append(queries, BatchQuery{Kind: BatchSample, Rect: rect, N: 1 + rng.Intn(20)})
	}
	for name, v := range map[string]*View{"remote": remote, "backends": mixed} {
		clear(calls)
		want, got := base.ExecuteBatch(queries), v.ExecuteBatch(queries)
		if calls[0]+calls[1]+calls[2] != 0 {
			t.Fatalf("%s: a batch of index-path samples made %v backend calls", name, calls)
		}
		for i := range queries {
			if w, g := want.Sample(i, rand.New(rand.NewSource(int64(i)))), got.Sample(i, rand.New(rand.NewSource(int64(i)))); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s query %d: sample %v, unsharded %v", name, i, g, w)
			}
		}
		v.ExecuteBatch(append(queries, BatchQuery{Kind: BatchCount, Rect: geom.R(10, 60, 0, 100, 20, 70)}))
		if calls[0] != 1 || calls[1] != 1 || calls[2] != 1 {
			t.Fatalf("%s: a batch with one grid item made %v backend calls, want one per shard", name, calls)
		}
	}
}

// countingShard counts the ExecuteBatch calls that reach a backend.
type countingShard struct {
	ShardBackend
	calls *int
}

func (c *countingShard) ExecuteBatch(items []ShardBatchItem) ([]ShardBatchResult, error) {
	*c.calls++
	return c.ShardBackend.ExecuteBatch(items)
}

// TestCoveringIndexSample pins the sharded covering-index sample path
// (a few draws from a wide range): every topology draws exactly the
// unsharded sample.
func TestCoveringIndexSample(t *testing.T) {
	tab := dataset.GenerateSDSS(40_000, 9)
	base, err := NewViewWorkers(tab, []string{"rowc", "colc", "ra"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		rect := geom.NewRect(3)
		lo := gen.Float64() * 50
		rect[trial%3] = geom.Interval{Lo: lo, Hi: lo + 20 + gen.Float64()*30}
		n := 1 + gen.Intn(3)
		seed := int64(trial)
		want := base.SampleRect(rect, n, rand.New(rand.NewSource(seed)))
		if len(want) != n {
			t.Fatalf("rect %v: unsharded drew %d of %d", rect, len(want), n)
		}
		for name, v := range planTopologies(t, base) {
			if got := v.SampleRect(rect, n, rand.New(rand.NewSource(seed))); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s rect %v: sample %v, unsharded %v", name, rect, got, want)
			}
		}
	}
}
