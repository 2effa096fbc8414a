package main

import (
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/shardrpc"
)

// The kill test re-execs this test binary as a real aideshard worker:
// when the guard variable is set, TestMain runs main() instead of the
// test suite, and os.Args carries ordinary worker flags.
const crashChildEnv = "AIDESHARD_CRASH_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(crashChildEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// killFlags has the kill test's worker serve shards 1 and 3 of a 4-way
// SDSS view.
var killFlags = []string{"-sdss", "4000", "-seed", "1", "-shards", "4", "-serve", "1,3"}

// startWorker launches an aideshard child with the given dataset and
// shard flags on the given unix socket and waits until it is accepting
// (the addr file is written after Listen).
func startWorker(t *testing.T, sock, tag string, flags ...string) *exec.Cmd {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr-"+tag)
	cmd := exec.Command(os.Args[0], append([]string{"-listen", sock, "-addr-file", addrFile}, flags...)...)
	cmd.Env = append(os.Environ(), crashChildEnv+"=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker child: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			return cmd
		}
		if time.Now().After(deadline) {
			t.Fatal("worker child never wrote its address")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func randomRects(n int, rng *rand.Rand) []geom.Rect {
	out := make([]geom.Rect, 0, n)
	for i := 0; i < n; i++ {
		r := make(geom.Rect, 2)
		for d := range r {
			a := rng.Float64() * 100
			b := rng.Float64() * 100
			if a > b {
				a, b = b, a
			}
			r[d] = geom.Interval{Lo: a, Hi: b}
		}
		out = append(out, r)
	}
	return out
}

// TestWorkerKillRecovery is the process-isolation smoke: a coordinator
// routes two shards to a real aideshard process, the process is
// SIGKILLed mid-service, and the coordinator must degrade to the named
// shard_partial contract — never a silently wrong answer — with its
// shards quarantined by the supervisor. A replacement worker started
// with the same flags (rebinding over the stale socket file) brings the
// topology back to healthy with bit-exact answers.
func TestWorkerKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	sock := filepath.Join(t.TempDir(), "w.sock")
	worker := startWorker(t, sock, "1", killFlags...)

	// The coordinator builds the same view the worker flags describe.
	tab := dataset.GenerateSDSS(4000, 1)
	base, err := engine.NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base.WithShards(engine.ShardOptions{Shards: 4, CooldownOps: 2})
	client, err := shardrpc.Dial(sock, base.Fingerprint(), 4, shardrpc.Options{
		DialTimeout: 500 * time.Millisecond,
		OpTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if got := len(client.Shards()); got != 2 {
		t.Fatalf("worker announced %d shards, want 2", got)
	}
	mixed, err := sharded.WithShardBackends(client.Backends())
	if err != nil {
		t.Fatal(err)
	}
	mixed, tracker := mixed.WithShardTracker()

	rng := rand.New(rand.NewSource(1))
	rects := randomRects(40, rng)
	for ri, rect := range rects[:5] {
		if got, want := mixed.RowsIn(rect), base.RowsIn(rect); !reflect.DeepEqual(got, want) {
			t.Fatalf("rect %d: remote answer differs pre-kill", ri)
		}
	}

	// SIGKILL: no shutdown path runs; the socket file stays behind.
	if err := worker.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	worker.Wait()

	sawPartial := false
	for ri, rect := range rects[5:20] {
		want := base.RowsIn(rect)
		got := mixed.RowsIn(rect)
		if name, partial := tracker.Drain(); partial {
			sawPartial = true
			if !strings.HasPrefix(name, "shard_partial:") {
				t.Fatalf("rect %d: degradation %q, want shard_partial:n/N", ri, name)
			}
			ref := make(map[int]struct{}, len(want))
			for _, r := range want {
				ref[r] = struct{}{}
			}
			for _, r := range got {
				if _, ok := ref[r]; !ok {
					t.Fatalf("rect %d: degraded result has row %d not in reference", ri, r)
				}
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("rect %d: undegraded result differs with worker dead", ri)
		}
	}
	if !sawPartial {
		t.Fatal("worker death never surfaced as a partial result")
	}
	for _, i := range []int{1, 3} {
		if st := mixed.ShardHealth()[i].State; st != engine.ShardQuarantined.String() {
			t.Fatalf("shard %d %s with the worker dead, want quarantined", i, st)
		}
	}

	// Same flags, same socket: the replacement removes the stale socket
	// file and resumes serving bit-identical shards.
	startWorker(t, sock, "2", killFlags...)
	full := geom.R(0, 100, 0, 100)
	recovered := func() bool {
		for _, h := range mixed.ShardHealth() {
			if h.State != engine.ShardHealthy.String() {
				return false
			}
		}
		return true
	}
	for i := 0; i < 100 && !recovered(); i++ {
		mixed.Count(full)
	}
	if !recovered() {
		t.Fatalf("never recovered after worker restart: %+v", mixed.ShardHealth())
	}
	tracker.Drain()
	for ri, rect := range rects[20:] {
		if got, want := mixed.RowsIn(rect), base.RowsIn(rect); !reflect.DeepEqual(got, want) {
			t.Fatalf("rect %d: post-restart result differs", ri)
		}
	}
	if name, partial := tracker.Drain(); partial {
		t.Fatalf("post-restart ops still degraded: %q", name)
	}
}
