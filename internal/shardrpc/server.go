package shardrpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"unsafe"

	"github.com/explore-by-example/aide/internal/engine"
)

// Server serves a subset of one sharded view's shards over the framed
// protocol. A worker process (cmd/aideshard) builds the sharded view of
// the coordinator's dataset, attrs and shard count — so the same
// fingerprint — and hands the shards it owns here.
//
// The hello exchange pins the contract: the client sends its view
// fingerprint and total shard count, the server rejects a mismatch
// (serving a shard of a different view would be silently wrong, the
// one failure mode the whole design exists to exclude) and answers
// with the shard indexes it serves plus their row counts.
type Server struct {
	fp       string
	total    int
	backends map[int]engine.ShardBackend

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	done  bool
	wg    sync.WaitGroup
}

// NewServer creates a server for the given shards of the view
// identified by fingerprint fp, sharded totalShards ways.
func NewServer(fp string, totalShards int, backends map[int]engine.ShardBackend) *Server {
	bs := make(map[int]engine.ShardBackend, len(backends))
	for i, b := range backends {
		bs[i] = b
	}
	return &Server{
		fp:       fp,
		total:    totalShards,
		backends: bs,
		conns:    make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until Close, one goroutine per
// connection, each looping request frame -> response frame. It returns
// nil after Close, or the accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return errors.New("shardrpc: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			done := s.done
			s.mu.Unlock()
			if done {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every live connection and waits for
// the per-connection goroutines.
func (s *Server) Close() {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

// serveConn loops one connection: any frame-level error (torn frame,
// bad CRC, closed peer) poisons the connection and ends the loop —
// the protocol never resyncs inside a stream.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	c := new(connState)
	for {
		op, payload, frame, err := readFrameInto(conn, c.frame)
		c.frame = frame
		if err != nil {
			return
		}
		rop := byte(opOK)
		if _, err := s.handle(c, op, payload); err != nil {
			rop = opErr
			c.out.begin()
			c.out.str(err.Error())
		}
		if _, err := conn.Write(c.out.seal(rop)); err != nil {
			return
		}
		c.trim()
	}
}

// connState is one connection's serving scratch, reused request after
// request so a served batch allocates next to nothing: the request
// frame, the batch decoded from it, the shard's results and the
// response frame. Every request overwrites what the previous one left,
// so nothing decoded outlives the request it served.
type connState struct {
	frame   []byte
	items   itemStore
	results []engine.ShardBatchResult
	out     enc
}

// maxKeptBytes caps each buffer a connection keeps between requests:
// one a large frame grew past it is dropped, so an idle connection
// holds about a typical batch's worth, not its largest one's.
const maxKeptBytes = 64 << 10

// trim drops every scratch buffer grown past maxKeptBytes.
func (c *connState) trim() {
	c.frame = keep(c.frame)
	c.items.items, c.items.ivs, c.items.rects = keep(c.items.items), keep(c.items.ivs), keep(c.items.rects)
	c.results = keep(c.results)
	c.out.b, c.out.full, c.out.partial = keep(c.out.b), keep(c.out.full), keep(c.out.partial)
}

func keep[T any](s []T) []T {
	var zero T
	if cap(s)*int(unsafe.Sizeof(zero)) > maxKeptBytes {
		return nil
	}
	return s
}

// batchInto is the optional ShardBackend method an in-process shard
// (engine's local shard) implements: ExecuteBatch writing its results
// into the caller's slice. The server hands it the connection's.
type batchInto interface {
	ExecuteBatchInto(items []engine.ShardBatchItem, out []engine.ShardBatchResult) ([]engine.ShardBatchResult, error)
}

// handle dispatches one request and encodes its answer into c.out, as
// the payload of a frame begun there; it returns that payload. A
// returned error becomes an opErr response; the connection stays usable
// (the request was well-framed, merely unserviceable). The backends
// reject what they cannot evaluate; a panic that slips past them still
// costs only this request, never the worker and every shard it serves.
func (s *Server) handle(c *connState, op byte, payload []byte) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("shardrpc: op %d panicked: %v", op, r)
		}
	}()
	c.out.begin()
	d := &dec{b: payload}
	switch op {
	case opHello:
		err = s.handleHello(d, &c.out)
	case opBatch:
		err = s.handleBatch(d, c)
	default:
		if name, ok := retiredOps[op]; ok {
			return nil, fmt.Errorf("shardrpc: op %d (%s) retired at protocol version 4; send it as a batch item", op, name)
		}
		return nil, fmt.Errorf("shardrpc: unknown op %d", op)
	}
	if err != nil {
		return nil, err
	}
	return c.out.b[headerSize+1:], nil
}

// handleBatch answers one shard's batch of sub-queries. The results
// are encoded, then cleared, before the request ends: a row buffer or a
// sample plan over the batch's rects never outlives it.
func (s *Server) handleBatch(d *dec, c *connState) error {
	shard := int(d.u32())
	b, okShard := s.backends[shard]
	if d.err != nil {
		return d.err
	}
	if !okShard {
		return fmt.Errorf("shardrpc: shard %d not served here", shard)
	}
	items, err := c.items.decode(d)
	if err != nil {
		return err
	}
	var results []engine.ShardBatchResult
	if bi, ok := b.(batchInto); ok {
		results, err = bi.ExecuteBatchInto(items, c.results)
		c.results = results
		defer clear(results)
	} else {
		results, err = b.ExecuteBatch(items)
	}
	if err != nil {
		return err
	}
	if len(results) != len(items) {
		return fmt.Errorf("shardrpc: backend answered %d results for %d items", len(results), len(items))
	}
	encodeBatchResults(&c.out, items, results)
	return nil
}

// handleHello validates the client's (version, fingerprint, total
// shards) tuple and announces the served shards.
func (s *Server) handleHello(d *dec, e *enc) error {
	version := d.u32()
	fp := d.str()
	total := int(d.u32())
	if d.err != nil {
		return d.err
	}
	if version != protocolVersion {
		return fmt.Errorf("shardrpc: protocol version %d, want %d", version, protocolVersion)
	}
	if fp != s.fp {
		return fmt.Errorf("shardrpc: view fingerprint %s, worker serves %s", fp, s.fp)
	}
	if total != s.total {
		return fmt.Errorf("shardrpc: %d total shards, worker built %d", total, s.total)
	}
	e.u32(uint32(len(s.backends)))
	for i, b := range s.backends {
		e.u32(uint32(i))
		e.u64(uint64(b.NumRows()))
	}
	return nil
}
