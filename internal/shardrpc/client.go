package shardrpc

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/faultinject"
	"github.com/explore-by-example/aide/internal/obs"
)

// engine_shard_rpc{op}: remote shard calls by operation, resolved once.
var (
	obsRPCHello   = obs.GetCounterVec("engine_shard_rpc", "op").With("hello")
	obsRPCBatch   = obs.GetCounterVec("engine_shard_rpc", "op").With("batch")
	obsRPCRetried = obs.GetCounterVec("engine_shard_rpc", "op").With("retried")
	obsRPCErrors  = obs.GetCounterVec("engine_shard_rpc", "op").With("error")
)

// Options tunes a Client. The retry discipline is the service.Client
// one — full-jitter draws from a doubling ceiling, context-free here
// because attempts are bounded by deadlines instead — with
// transport-scale default constants.
type Options struct {
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// OpTimeout bounds one request/response exchange, enforced as the
	// connection's read/write deadline per attempt (default 10s).
	OpTimeout time.Duration
	// MaxRetries bounds how many times a failed exchange is retried on a
	// fresh connection (the failed one is discarded). Default 2;
	// negative disables retries. The engine's scatter layer retries on
	// top of this, so the default stays small.
	MaxRetries int
	// BaseBackoff is the first retry's full-jitter ceiling; each further
	// attempt doubles it up to MaxBackoff. Defaults 2ms / 50ms —
	// transport-scale versions of the service client's 100ms / 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold is how many consecutive failed calls open a
	// shard's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how many fast-failed calls an open breaker
	// sits out before admitting a half-open probe (default 8). Measured
	// in calls, not wall time, so chaos runs are deterministic.
	BreakerCooldown int
	// MaxIdleConns bounds the per-client idle connection pool
	// (default 2 — the scatter layer runs at most a primary and a hedge
	// per shard at once).
	MaxIdleConns int
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 10 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 2 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 50 * time.Millisecond
	}
	if o.MaxIdleConns <= 0 {
		o.MaxIdleConns = 2
	}
	return o
}

// backoff returns the full-jitter ceiling for the attempt'th retry —
// service.Client's doubling-with-saturation shape.
func (o Options) backoff(attempt int) time.Duration {
	d := o.BaseBackoff << uint(attempt)
	if d <= 0 || d > o.MaxBackoff { // <<-overflow or past the cap
		d = o.MaxBackoff
	}
	return d
}

// RemoteShard describes one shard a worker announced in its hello
// response.
type RemoteShard struct {
	Index int
	Rows  int
}

// Client is a connection-pooled client for one shard worker. It is
// safe for concurrent use: each in-flight exchange owns one pooled
// connection. Every shard the worker serves gets its own circuit
// breaker; Backends exposes them as engine.ShardBackend values for
// engine.View.WithShardBackends.
type Client struct {
	network string
	addr    string
	opts    Options
	fp      string
	total   int
	served  []RemoteShard

	mu       sync.Mutex
	idle     []net.Conn
	closed   bool
	breakers map[int]*breaker

	// jitter shapes retry timing only, never results.
	jmu    sync.Mutex
	jitter *rand.Rand
}

// Network guesses the network for an address: anything with a path
// separator is a unix socket, the rest host:port TCP.
func Network(addr string) string {
	if strings.ContainsAny(addr, "/\\") {
		return "unix"
	}
	return "tcp"
}

// Dial connects to a shard worker at addr (Network picks tcp vs unix),
// performs the hello exchange for the view identified by fingerprint
// fp sharded totalShards ways, and returns a client for the shards the
// worker announced. The handshake failing — version, fingerprint or
// shard-count mismatch, or the worker unreachable — is a deploy error,
// returned immediately.
func Dial(addr, fp string, totalShards int, opts Options) (*Client, error) {
	c := &Client{
		network:  Network(addr),
		addr:     addr,
		opts:     opts.withDefaults(),
		fp:       fp,
		total:    totalShards,
		breakers: make(map[int]*breaker),
		jitter:   rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	e := &enc{}
	e.u32(protocolVersion)
	e.str(fp)
	e.u32(uint32(totalShards))
	resp, err := c.call(-1, opHello, e.b)
	if err != nil {
		return nil, fmt.Errorf("shardrpc: hello %s: %w", addr, err)
	}
	d := &dec{b: resp}
	n := d.count(12)
	for i := 0; i < n; i++ {
		c.served = append(c.served, RemoteShard{Index: int(d.u32()), Rows: int(d.u64())})
	}
	if d.err != nil {
		return nil, fmt.Errorf("shardrpc: hello %s: %w", addr, d.err)
	}
	if len(c.served) == 0 {
		return nil, fmt.Errorf("shardrpc: worker %s serves no shards", addr)
	}
	for _, sh := range c.served {
		if sh.Index < 0 || sh.Index >= totalShards {
			return nil, fmt.Errorf("shardrpc: worker %s announced shard %d of %d", addr, sh.Index, totalShards)
		}
		c.breakers[sh.Index] = newBreaker(sh.Index, c.opts.BreakerThreshold, uint64(c.opts.BreakerCooldown))
	}
	return c, nil
}

// Shards returns the shards the worker announced, in hello order.
func (c *Client) Shards() []RemoteShard {
	out := make([]RemoteShard, len(c.served))
	copy(out, c.served)
	return out
}

// Backends returns one engine.ShardBackend per served shard, keyed by
// shard index — the value engine.View.WithShardBackends takes.
func (c *Client) Backends() map[int]engine.ShardBackend {
	out := make(map[int]engine.ShardBackend, len(c.served))
	for _, sh := range c.served {
		r := &remoteShard{c: c, index: sh.Index, rows: sh.Rows}
		r.Batch = r.ExecuteBatch
		out[sh.Index] = r
	}
	return out
}

// BreakerState returns the breaker state for one served shard
// (BreakerClosed for shards this worker does not serve).
func (c *Client) BreakerState(shard int) BreakerState {
	if b := c.breakers[shard]; b != nil {
		return b.State()
	}
	return BreakerClosed
}

// BreakerTransitions returns the bounded transition log for one served
// shard's breaker.
func (c *Client) BreakerTransitions(shard int) []BreakerTransition {
	if b := c.breakers[shard]; b != nil {
		return b.Transitions()
	}
	return nil
}

// Close closes the idle pool and retires the breakers' gauge
// contributions. In-flight exchanges fail as their connections die.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
	for _, b := range c.breakers {
		b.release()
	}
	return nil
}

// getConn returns a pooled idle connection or dials a fresh one. The
// shardrpc.dial fault point fires here: an injected error is a
// connection refusal, injected latency a slow connect.
func (c *Client) getConn(shard int) (net.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("shardrpc: client closed")
	}
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	pt := faultinject.PointAt(faultinject.FaultShardRPCDial, shard)
	faultinject.Latency(pt)
	if err := faultinject.Err(pt); err != nil {
		return nil, fmt.Errorf("shardrpc: dial %s: %w", c.addr, err)
	}
	conn, err := net.DialTimeout(c.network, c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	return conn, nil
}

// putConn returns a healthy connection to the idle pool, or closes it
// when the pool is full or the client closed.
func (c *Client) putConn(conn net.Conn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < c.opts.MaxIdleConns {
		c.idle = append(c.idle, conn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	conn.Close()
}

// call runs one exchange for a shard (shard < 0: the un-breakered
// hello), retrying transport failures with full-jitter backoff. Any
// failed attempt discards its connection — a framed stream that errored
// cannot be trusted to resync.
func (c *Client) call(shard int, op byte, payload []byte) ([]byte, error) {
	var brk *breaker
	if shard >= 0 {
		if brk = c.breakers[shard]; brk != nil {
			if err := brk.Allow(); err != nil {
				obsRPCErrors.Inc()
				return nil, err
			}
		}
	}
	resp, err := c.callRetry(shard, op, payload)
	if brk != nil {
		brk.Record(err == nil)
	}
	if err != nil {
		obsRPCErrors.Inc()
		return nil, err
	}
	if op == opHello {
		obsRPCHello.Inc()
	} else {
		obsRPCBatch.Inc()
	}
	return resp, nil
}

func (c *Client) callRetry(shard int, op byte, payload []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, retriable, err := c.callOnce(shard, op, payload)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !retriable || attempt >= c.opts.MaxRetries {
			return nil, lastErr
		}
		obsRPCRetried.Inc()
		c.jmu.Lock()
		d := time.Duration(c.jitter.Int63n(int64(c.opts.backoff(attempt)) + 1))
		c.jmu.Unlock()
		time.Sleep(d)
	}
}

// callOnce runs one request/response exchange on one connection.
// retriable distinguishes transport failures (retry on a fresh
// connection) from the server's explicit opErr answer (the exchange
// worked; retrying would repeat the same answer).
func (c *Client) callOnce(shard int, op byte, payload []byte) (resp []byte, retriable bool, err error) {
	conn, err := c.getConn(shard)
	if err != nil {
		return nil, true, err
	}
	if c.opts.OpTimeout > 0 {
		conn.SetDeadline(time.Now().Add(c.opts.OpTimeout))
	}

	// shardrpc.write faults: a short write is a torn frame — the prefix
	// goes out, then the connection dies mid-frame, and the server's CRC
	// or length check poisons its end too.
	wpt := faultinject.PointAt(faultinject.FaultShardRPCWrite, shard)
	if err := faultinject.Err(wpt); err != nil {
		conn.Close()
		return nil, true, fmt.Errorf("shardrpc: write: %w", err)
	}
	frame := &enc{}
	frame.u32(uint32(1 + len(payload)))
	body := append([]byte{op}, payload...)
	if k, torn := faultinject.ShortWrite(wpt, len(body)); torn {
		e := &enc{b: frame.b}
		e.u32(crcOf(body))
		e.b = append(e.b, body[:k]...)
		conn.Write(e.b)
		conn.Close()
		return nil, true, fmt.Errorf("shardrpc: torn frame after %d/%d bytes", k, len(body))
	}
	if err := writeFrame(conn, op, payload); err != nil {
		conn.Close()
		return nil, true, err
	}

	// shardrpc.read faults: an injected error is a mid-stream disconnect
	// while awaiting the response; injected latency a response spike.
	rpt := faultinject.PointAt(faultinject.FaultShardRPCRead, shard)
	faultinject.Latency(rpt)
	if err := faultinject.Err(rpt); err != nil {
		conn.Close()
		return nil, true, fmt.Errorf("shardrpc: read: %w", err)
	}
	rop, rpayload, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return nil, true, err
	}
	if c.opts.OpTimeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	switch rop {
	case opOK:
		c.putConn(conn)
		return rpayload, false, nil
	case opErr:
		d := &dec{b: rpayload}
		msg := d.str()
		c.putConn(conn)
		return nil, false, fmt.Errorf("shardrpc: %s", msg)
	default:
		conn.Close()
		return nil, true, fmt.Errorf("shardrpc: unexpected response op %d", rop)
	}
}

// remoteShard is the engine.ShardBackend a Client exposes for one
// shard: every call is one framed batch exchange; decode failures are
// transport errors and flow into the breaker/supervisor path like any
// other.
type remoteShard struct {
	engine.BatchAdapter
	c     *Client
	index int
	rows  int
}

func (r *remoteShard) ShardIndex() int { return r.index }
func (r *remoteShard) NumRows() int    { return r.rows }

// ExecuteBatch ships a whole batch of sub-queries in ONE framed
// exchange — one round-trip, one breaker admission, one
// engine_shard_rpc{op="batch"} tick — however many sub-queries ride in
// it. This is the per-iteration round-trip amortization the batched
// execution path exists for.
func (r *remoteShard) ExecuteBatch(items []engine.ShardBatchItem) ([]engine.ShardBatchResult, error) {
	if len(items) > maxBatchItems {
		return nil, fmt.Errorf("shardrpc: batch of %d items exceeds %d", len(items), maxBatchItems)
	}
	e := &enc{}
	e.u32(uint32(r.index))
	if err := encodeBatchItems(e, items); err != nil {
		return nil, err
	}
	resp, err := r.c.call(r.index, opBatch, e.b)
	if err != nil {
		return nil, err
	}
	return decodeBatchResults(&dec{b: resp}, items)
}
