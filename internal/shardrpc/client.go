package shardrpc

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/faultinject"
	"github.com/explore-by-example/aide/internal/obs"
)

// engine_shard_rpc{op}: remote shard exchanges by outcome, resolved
// once: a successful hello or batch, or a failed exchange of either.
var (
	obsRPCHello  = obs.GetCounterVec("engine_shard_rpc", "op").With("hello")
	obsRPCBatch  = obs.GetCounterVec("engine_shard_rpc", "op").With("batch")
	obsRPCErrors = obs.GetCounterVec("engine_shard_rpc", "op").With("error")
)

// Options sets a Client's deployment timeouts. The client keeps no
// health state and never retries: a call is one exchange, and its
// outcome goes to the engine's supervised scatter, the one retry layer
// (engine.ShardOptions.MaxAttempts) and the one failure detector.
type Options struct {
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// OpTimeout bounds one request/response exchange, enforced as the
	// connection's read/write deadline (default 10s).
	OpTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 10 * time.Second
	}
	return o
}

// maxIdleConns bounds the per-client idle connection pool: the scatter
// layer runs at most a primary and a hedge per shard at once.
const maxIdleConns = 2

// RemoteShard describes one shard a worker announced in its hello
// response.
type RemoteShard struct {
	Index int
	Rows  int
}

// Client is a connection-pooled client for one shard worker. It is
// safe for concurrent use: each in-flight exchange owns one pooled
// connection. Backends exposes the worker's shards as
// engine.ShardBackend values for engine.View.WithShardBackends.
type Client struct {
	network string
	addr    string
	opts    Options
	fp      string
	total   int
	served  []RemoteShard

	mu     sync.Mutex
	idle   []net.Conn
	closed bool
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
		network: Network(addr),
		addr:    addr,
		opts:    opts.withDefaults(),
		fp:      fp,
		total:   totalShards,
	}
	served, err := c.hello()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("shardrpc: hello %s: %w", addr, err)
	}
	c.served = served
	return c, nil
}

// hello pins the deployment and returns the shards the worker serves.
func (c *Client) hello() ([]RemoteShard, error) {
	e := &enc{}
	e.u32(protocolVersion)
	e.str(c.fp)
	e.u32(uint32(c.total))
	resp, err := c.call(-1, opHello, e.b)
	if err != nil {
		return nil, err
	}
	d := &dec{b: resp}
	served := make([]RemoteShard, d.count(12))
	for i := range served {
		served[i] = RemoteShard{Index: int(d.u32()), Rows: int(d.u64())}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(served) == 0 {
		return nil, fmt.Errorf("worker serves no shards")
	}
	for _, sh := range served {
		if sh.Index < 0 || sh.Index >= c.total {
			return nil, fmt.Errorf("worker announced shard %d of %d", sh.Index, c.total)
		}
	}
	return served, nil
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

// Close closes the idle pool. In-flight exchanges fail as their
// connections die.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.dropIdle()
	return nil
}

// dropIdle closes every pooled connection.
func (c *Client) dropIdle() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
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
	return net.DialTimeout(c.network, c.addr, c.opts.DialTimeout)
}

// putConn returns a healthy connection to the idle pool, or closes it
// when the pool is full or the client closed.
func (c *Client) putConn(conn net.Conn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < maxIdleConns {
		c.idle = append(c.idle, conn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	conn.Close()
}

// call runs one exchange for a shard (shard < 0: the hello) and never
// retries: the engine's attempt loop decides what a failure costs. The
// server's opErr answer keeps the connection. A transport failure
// closes it — a framed stream that errored cannot be trusted to
// resync — and the idle pool with it, since a worker that dropped one
// connection most likely dropped them all: a restarted worker costs one
// failed attempt, and the next dials afresh.
func (c *Client) call(shard int, op byte, payload []byte) ([]byte, error) {
	conn, err := c.getConn(shard)
	var rop byte
	var resp []byte
	if err == nil {
		rop, resp, err = c.exchange(conn, shard, op, payload)
	}
	if err != nil {
		if conn != nil {
			conn.Close()
		}
		c.dropIdle()
		obsRPCErrors.Inc()
		return nil, err
	}
	c.putConn(conn)
	if rop == opErr {
		obsRPCErrors.Inc()
		return nil, fmt.Errorf("shardrpc: %s", (&dec{b: resp}).str())
	}
	if op == opHello {
		obsRPCHello.Inc()
	} else {
		obsRPCBatch.Inc()
	}
	return resp, nil
}

// exchange writes one request frame on conn and reads the response
// frame, opOK or opErr, under the OpTimeout deadline and the
// shardrpc.write/read fault points. Any error leaves conn poisoned; the
// caller closes it.
func (c *Client) exchange(conn net.Conn, shard int, op byte, payload []byte) (rop byte, resp []byte, err error) {
	conn.SetDeadline(time.Now().Add(c.opts.OpTimeout))

	// shardrpc.write faults: a short write is a torn frame — the prefix
	// goes out, then the connection dies mid-frame, and the server's CRC
	// or length check poisons its end too.
	wpt := faultinject.PointAt(faultinject.FaultShardRPCWrite, shard)
	if err := faultinject.Err(wpt); err != nil {
		return 0, nil, fmt.Errorf("shardrpc: write: %w", err)
	}
	if k, torn := faultinject.ShortWrite(wpt, 1+len(payload)); torn {
		body := append([]byte{op}, payload...)
		e := &enc{}
		e.u32(uint32(len(body)))
		e.u32(crcOf(body))
		e.b = append(e.b, body[:k]...)
		conn.Write(e.b)
		return 0, nil, fmt.Errorf("shardrpc: torn frame after %d/%d bytes", k, len(body))
	}
	if err := writeFrame(conn, op, payload); err != nil {
		return 0, nil, err
	}

	// shardrpc.read faults: an injected error is a mid-stream disconnect
	// while awaiting the response; injected latency a response spike.
	rpt := faultinject.PointAt(faultinject.FaultShardRPCRead, shard)
	faultinject.Latency(rpt)
	if err := faultinject.Err(rpt); err != nil {
		return 0, nil, fmt.Errorf("shardrpc: read: %w", err)
	}
	if rop, resp, err = readFrame(conn); err != nil {
		return 0, nil, err
	}
	if rop != opOK && rop != opErr {
		return 0, nil, fmt.Errorf("shardrpc: unexpected response op %d", rop)
	}
	conn.SetDeadline(time.Time{})
	return rop, resp, nil
}

// remoteShard is the engine.ShardBackend a Client exposes for one
// shard: every call is one framed batch exchange; decode failures are
// transport errors and flow into the supervisor path like any other.
type remoteShard struct {
	engine.BatchAdapter
	c     *Client
	index int
	rows  int
}

func (r *remoteShard) ShardIndex() int { return r.index }
func (r *remoteShard) NumRows() int    { return r.rows }

// ExecuteBatch ships a whole batch of sub-queries in ONE framed
// exchange — one round-trip, one engine_shard_rpc{op="batch"} tick —
// however many sub-queries ride in it. This is the per-iteration round-trip amortization the batched
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
