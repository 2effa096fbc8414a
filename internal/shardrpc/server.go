package shardrpc

import (
	"errors"
	"fmt"
	"net"
	"sync"

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
	for {
		op, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		resp, err := s.handle(op, payload)
		if err != nil {
			e := &enc{}
			e.str(err.Error())
			if writeFrame(conn, opErr, e.b) != nil {
				return
			}
			continue
		}
		if writeFrame(conn, opOK, resp) != nil {
			return
		}
	}
}

// handle dispatches one request. A returned error becomes an opErr
// response; the connection stays usable (the request was well-framed,
// merely unserviceable). The backends reject what they cannot evaluate;
// a panic that slips past them still costs only this request, never the
// worker and every shard it serves.
func (s *Server) handle(op byte, payload []byte) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("shardrpc: op %d panicked: %v", op, r)
		}
	}()
	d := &dec{b: payload}
	switch op {
	case opHello:
		return s.handleHello(d)
	case opBatch:
		return s.handleBatch(d)
	}
	if name, ok := retiredOps[op]; ok {
		return nil, fmt.Errorf("shardrpc: op %d (%s) retired at protocol version 4; send it as a batch item", op, name)
	}
	return nil, fmt.Errorf("shardrpc: unknown op %d", op)
}

// handleBatch answers one shard's batch of sub-queries.
func (s *Server) handleBatch(d *dec) ([]byte, error) {
	shard := int(d.u32())
	b, okShard := s.backends[shard]
	if d.err != nil {
		return nil, d.err
	}
	if !okShard {
		return nil, fmt.Errorf("shardrpc: shard %d not served here", shard)
	}
	items, err := decodeBatchItems(d)
	if err != nil {
		return nil, err
	}
	results, err := b.ExecuteBatch(items)
	if err != nil {
		return nil, err
	}
	if len(results) != len(items) {
		return nil, fmt.Errorf("shardrpc: backend answered %d results for %d items", len(results), len(items))
	}
	e := &enc{}
	encodeBatchResults(e, items, results)
	return e.b, nil
}

// handleHello validates the client's (version, fingerprint, total
// shards) tuple and announces the served shards.
func (s *Server) handleHello(d *dec) ([]byte, error) {
	version := d.u32()
	fp := d.str()
	total := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if version != protocolVersion {
		return nil, fmt.Errorf("shardrpc: protocol version %d, want %d", version, protocolVersion)
	}
	if fp != s.fp {
		return nil, fmt.Errorf("shardrpc: view fingerprint %s, worker serves %s", fp, s.fp)
	}
	if total != s.total {
		return nil, fmt.Errorf("shardrpc: %d total shards, worker built %d", total, s.total)
	}
	e := &enc{}
	e.u32(uint32(len(s.backends)))
	for i, b := range s.backends {
		e.u32(uint32(i))
		e.u64(uint64(b.NumRows()))
	}
	return e.b, nil
}
