package main

import (
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/durable"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/service"
	"github.com/explore-by-example/aide/internal/shardrpc"
)

// serverCacheBytes is aideserver's -cache-bytes default.
const serverCacheBytes = 64 << 20

// stack is the workload's topology assembled in this process from the
// layers' public constructors — what cmd/aideserver and cmd/aideshard
// assemble in theirs — with the timing decorators of trace.go at the
// seams. Workers are shardrpc servers on unix sockets in the run
// directory, so the wire path (encode, socket, decode) is the real one.
type stack struct {
	view *engine.View // what the service serves: cached; sharded with remote backends when the workload has workers
	srv  *service.Server
	base string // http://host:port

	stopHTTP func()
	workers  []*shardrpc.Server
	clients  []*shardrpc.Client
	wal      *durable.Manager
	logf     *os.File

	bytesIn, bytesOut atomic.Int64 // worker-side socket traffic

	viewBuild time.Duration // NewViewWorkers + WithShards
	dialHello time.Duration // shardrpc.Dial of every worker, hello included
}

// buildStack assembles the stack for w over tab, decorated with tr.
func buildStack(w workload, tab *dataset.Table, runDir string, tr *tracer) (s *stack, err error) {
	s = &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	t0 := time.Now()
	v, err := engine.NewViewWorkers(tab, w.Attrs, 0)
	if err != nil {
		return s, err
	}
	if w.Workers > 0 {
		v = v.WithShards(engine.ShardOptions{Shards: w.Workers})
	}
	s.viewBuild = time.Since(t0)
	local := v.LocalShardBackends()
	v = v.WithCache(engine.NewCache(serverCacheBytes))

	if w.Workers > 0 {
		cwd, err := os.Getwd()
		if err != nil {
			return s, err
		}
		remote := make(map[int]engine.ShardBackend)
		for i := 0; i < w.Workers; i++ {
			sock := filepath.Join(runDir, fmt.Sprintf("t%d.sock", i))
			if rel, err := filepath.Rel(cwd, sock); err == nil {
				sock = rel // unix socket paths are short-limited; the checkout's may not be
			}
			ln, err := net.Listen("unix", sock)
			if err != nil {
				return s, err
			}
			ws := shardrpc.NewServer(v.Fingerprint(), w.Workers,
				map[int]engine.ShardBackend{i: traceBackend{ShardBackend: local[i], t: tr, worker: true}})
			s.workers = append(s.workers, ws)
			go ws.Serve(countingListener{Listener: ln, in: &s.bytesIn, out: &s.bytesOut}) // returns nil after Close
			t0 = time.Now()
			c, err := shardrpc.Dial(sock, v.Fingerprint(), w.Workers, shardrpc.Options{})
			if err != nil {
				return s, err
			}
			s.dialHello += time.Since(t0)
			s.clients = append(s.clients, c)
			for idx, b := range c.Backends() {
				remote[idx] = traceBackend{ShardBackend: b, t: tr}
			}
		}
		if v, err = v.WithShardBackends(remote); err != nil {
			return s, err
		}
	}
	s.view = v

	s.srv = service.NewServer(map[string]*engine.View{"sdss": v})
	if w.Durable {
		s.wal, err = durable.NewManager(filepath.Join(runDir, "twal"), durable.Options{Fsync: durable.FsyncAlways})
		if err != nil {
			return s, err
		}
		s.srv.Durable = s.wal
	}
	// The middleware chain of cmd/aideserver, request log to a file as
	// the spawned server's stderr is.
	s.logf, err = os.Create(filepath.Join(runDir, "inproc-server.log"))
	if err != nil {
		return s, err
	}
	logger := slog.New(slog.NewTextHandler(s.logf, nil))
	handler := service.WithRequestLog(logger,
		service.WithRecovery(logger, service.WithDeadline(time.Minute, s.srv)))
	s.base, s.stopHTTP, err = serveHTTP(traceHandler{t: tr, next: handler})
	return s, err
}

// close tears the stack down; every step tolerates a half-built stack.
func (s *stack) close() {
	if s.stopHTTP != nil {
		s.stopHTTP()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	for _, c := range s.clients {
		c.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
	if s.wal != nil {
		s.wal.Close()
	}
	if s.logf != nil {
		s.logf.Close()
	}
}
