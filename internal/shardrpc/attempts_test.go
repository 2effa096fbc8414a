package shardrpc

import (
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/explore-by-example/aide/internal/engine"
)

// frameProxy sits between a Client and a worker on its own unix socket
// and counts what crosses it: accepted connections and request frames.
// While down it reads each request frame, counts it and closes that
// connection, so every exchange the client attempts is one counted
// frame, on a pooled connection or a fresh dial alike.
type frameProxy struct {
	addr     string
	target   string
	accepted atomic.Int64
	frames   atomic.Int64

	mu    sync.Mutex
	down  bool
	conns map[net.Conn]struct{}
}

func startProxy(t *testing.T, target string) *frameProxy {
	t.Helper()
	p := &frameProxy{
		addr:   filepath.Join(t.TempDir(), "p.sock"),
		target: target,
		conns:  make(map[net.Conn]struct{}),
	}
	ln, err := net.Listen("unix", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ln.Close()
		p.restart()
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepted.Add(1)
			go p.serve(c)
		}
	}()
	return p
}

func (p *frameProxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *frameProxy) isDown() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// serve relays one client connection frame by frame to its own
// upstream connection, dialled at the first live request.
func (p *frameProxy) serve(c net.Conn) {
	p.track(c)
	defer c.Close()
	var up net.Conn
	defer func() {
		if up != nil {
			up.Close()
		}
	}()
	for {
		op, payload, err := readFrame(c)
		if err != nil {
			return
		}
		p.frames.Add(1)
		if p.isDown() {
			return
		}
		if up == nil {
			if up, err = net.Dial("unix", p.target); err != nil {
				return
			}
			p.track(up)
		}
		if writeFrame(up, op, payload) != nil {
			return
		}
		rop, rpayload, err := readFrame(up)
		if err != nil || writeFrame(c, rop, rpayload) != nil {
			return
		}
	}
}

// kill makes the worker dead: open connections stay up until their next
// request, which is counted and answered by a close.
func (p *frameProxy) kill() {
	p.mu.Lock()
	p.down = true
	p.mu.Unlock()
}

// restart brings the worker back and drops every open connection, as a
// restarted worker process does: pooled client connections go stale.
func (p *frameProxy) restart() {
	p.mu.Lock()
	p.down = false
	for c := range p.conns {
		c.Close()
	}
	clear(p.conns)
	p.mu.Unlock()
}

// proxiedView routes the given shards of a 4-shard view through a
// worker behind a frameProxy, at the deployment defaults:
// engine.ShardOptions{Shards: 4} and Options{}.
func proxiedView(t *testing.T, rows int, served []int) (base, mixed *engine.View, tracker *engine.ShardTracker, p *frameProxy) {
	t.Helper()
	base, _ = testViews(t, rows, 4)
	addr, _ := startWorker(t, rows, 4, served)
	p = startProxy(t, addr)
	mixed, _ = dialWorker(t, base.WithShards(engine.ShardOptions{Shards: 4}), p.addr, Options{})
	mixed, tracker = mixed.WithShardTracker()
	return base, mixed, tracker, p
}

// The engine's defaults the bound is stated in: sequential attempts
// per shard per scatter, and the quarantine cooldown in scatter ops.
const (
	defaultMaxAttempts = 2
	defaultCooldownOps = 8
)

// TestWireAttemptBoundDeadWorker pins the one retry layer and the one
// failure detector at the deployment defaults. A dead worker's shard
// costs at most MaxAttempts wire attempts per scatter op, is
// quarantined after two ops, costs nothing while quarantined, and is
// healthy again within a cooldown of the worker's restart.
func TestWireAttemptBoundDeadWorker(t *testing.T) {
	base, mixed, tracker, p := proxiedView(t, 6000, []int{2})
	rects := randomRects(60, 2, rand.New(rand.NewSource(11)))
	next := 0
	// op runs one scatter (one RowsIn) and returns the request frames it
	// put on the wire, the degradation it drained and shard 2's state.
	op := func() (frames int64, partial bool, state string) {
		rect := rects[next%len(rects)]
		next++
		f0 := p.frames.Load()
		got := mixed.RowsIn(rect)
		frames = p.frames.Load() - f0
		partial = checkNeverWrong(t, tracker, got, base.RowsIn(rect))
		return frames, partial, mixed.ShardHealth()[2].State
	}

	for i := 0; i < 3; i++ {
		if f, partial, _ := op(); f != 1 || partial {
			t.Fatalf("healthy op %d: %d frames, partial %v; want 1 frame, exact", i, f, partial)
		}
	}

	p.kill()
	for i, want := range []engine.ShardState{engine.ShardSuspect, engine.ShardQuarantined} {
		f, partial, state := op()
		if f < 1 || f > defaultMaxAttempts {
			t.Fatalf("dead op %d: %d wire attempts, want 1..%d", i, f, defaultMaxAttempts)
		}
		if !partial || state != want.String() {
			t.Fatalf("dead op %d: partial %v, state %s; want partial, %s", i, partial, state, want)
		}
	}
	// Quarantined: skipped without a wire attempt until the cooldown
	// elapses, then one probe op, which fails and re-quarantines.
	for i := 1; i < defaultCooldownOps; i++ {
		if f, partial, state := op(); f != 0 || !partial || state != engine.ShardQuarantined.String() {
			t.Fatalf("quarantined op %d: %d frames, partial %v, state %s", i, f, partial, state)
		}
	}
	if f, partial, state := op(); f < 1 || f > defaultMaxAttempts || !partial || state != engine.ShardQuarantined.String() {
		t.Fatalf("failed probe: %d frames, partial %v, state %s", f, partial, state)
	}

	// The worker restarts at once; the supervisor's cooldown alone
	// decides when the shard is back.
	p.restart()
	healthyAfter := 0
	for i := 1; i <= defaultCooldownOps+1; i++ {
		f, _, state := op()
		if state == engine.ShardHealthy.String() {
			if f != 1 {
				t.Fatalf("probe op: %d frames, want 1", f)
			}
			healthyAfter = i
			break
		}
		if f != 0 {
			t.Fatalf("quarantined op %d after restart: %d frames, want 0", i, f)
		}
	}
	if healthyAfter == 0 {
		t.Fatalf("shard not healthy within %d ops of the restart: %+v", defaultCooldownOps+1, mixed.ShardHealth())
	}
	for i := 0; i < 5; i++ {
		if f, partial, _ := op(); f != 1 || partial {
			t.Fatalf("recovered op %d: %d frames, partial %v; want 1 frame, exact", i, f, partial)
		}
	}
}

// TestWireAttemptBoundRestartBetweenOps restarts a healthy worker
// between two ops: the stale pooled connections cost one failed attempt
// and the retry dials afresh, so no op degrades.
func TestWireAttemptBoundRestartBetweenOps(t *testing.T) {
	base, mixed, tracker, p := proxiedView(t, 6000, []int{1, 3})
	rects := randomRects(20, 2, rand.New(rand.NewSource(12)))
	for ri, rect := range rects {
		if ri%4 == 2 {
			p.restart()
		}
		if checkNeverWrong(t, tracker, mixed.RowsIn(rect), base.RowsIn(rect)) {
			t.Fatalf("rect %d: a worker restart between ops degraded the next op", ri)
		}
	}
	for _, h := range mixed.ShardHealth() {
		if h.State != engine.ShardHealthy.String() {
			t.Fatalf("shard %d %s after restarts, want healthy", h.Index, h.State)
		}
	}
	if p.accepted.Load() < 2 {
		t.Fatalf("%d connections accepted: the restarts never forced a redial", p.accepted.Load())
	}
}
