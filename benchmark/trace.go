package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
)

// span is one timed interval at a layer boundary. Spans of one client
// exchange (a step, a session's first sample, its teardown) share Trace.
// Start and End are nanoseconds since the tracer was created.
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: root of its trace
	Name   string `json:"name"`
	Shard  int    `json:"shard"` // shard served, -1 outside the shard seam
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans in memory; they are written out when the run ends.
// The traced run has ONE client, so at any moment at most one client
// exchange is open, and the decorators — which sit on goroutines the
// client never sees (HTTP handlers, the session's steering goroutine,
// shard workers) — attribute their spans to it through cur. A nil
// *tracer records nothing.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	cur    atomic.Pointer[openTrace]
	// inflight[i] is the engine.shard_call span currently calling shard
	// i: the parent of the worker-side span it causes.
	inflight [maxTracedShards]atomic.Int64

	mu    sync.Mutex
	spans []span
}

const maxTracedShards = 16

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// openTrace is the client exchange currently in progress.
type openTrace struct {
	t     *tracer
	trace string
	root  span
	// curOp is the client operation (one HTTP round trip) in progress: the
	// parent of the handler span it causes.
	curOp atomic.Int64
	// waitID is reserved for the handler span of the exchange's GET
	// /sample. Work the steering goroutine does for this exchange is
	// parented there — that handler is what blocks on it — even when it
	// starts before the handler does.
	waitID int64
}

// open begins a client exchange with the given root span name; the trace
// name is formatted only when tracing is on.
func (t *tracer) open(name, traceFormat string, args ...any) *openTrace {
	if t == nil {
		return nil
	}
	trace := fmt.Sprintf(traceFormat, args...)
	o := &openTrace{t: t, trace: trace, waitID: t.nextID.Add(1)}
	o.root = span{Trace: trace, ID: t.nextID.Add(1), Name: name, Shard: -1, Start: t.now()}
	t.cur.Store(o)
	return o
}

// op times fn as one client operation of the exchange.
func (o *openTrace) op(name string, fn func()) {
	if o == nil {
		fn()
		return
	}
	s := span{Trace: o.trace, ID: o.t.nextID.Add(1), Parent: o.root.ID, Name: name, Shard: -1, Start: o.t.now()}
	o.curOp.Store(s.ID)
	fn()
	s.End = o.t.now()
	o.curOp.Store(0)
	o.t.record(s)
}

func (o *openTrace) close() {
	if o == nil {
		return
	}
	o.t.cur.CompareAndSwap(o, nil)
	o.root.End = o.t.now()
	o.t.record(o.root)
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans dumps spans as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceHandler is the decorator at the service seam: it times every
// request the wrapped handler serves.
type traceHandler struct {
	t    *tracer
	next http.Handler
}

func handlerSpanName(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/sessions":
		return "service.handle.create"
	case r.Method == http.MethodDelete:
		return "service.handle.delete"
	case strings.HasSuffix(r.URL.Path, "/sample"):
		return "service.handle.sample"
	case strings.HasSuffix(r.URL.Path, "/label"):
		return "service.handle.label"
	default:
		return "service.handle.other"
	}
}

func (h traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o := h.t.cur.Load()
	if o == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	s := span{Trace: o.trace, Parent: o.curOp.Load(), Name: handlerSpanName(r), Shard: -1, Start: h.t.now()}
	if s.Name == "service.handle.sample" {
		s.ID = o.waitID
	} else {
		s.ID = h.t.nextID.Add(1)
	}
	h.next.ServeHTTP(w, r)
	s.End = h.t.now()
	h.t.record(s)
}

// traceBackend is the decorator at the engine/shardrpc seam. On the
// coordinator (worker == false) it wraps the backend the scatter layer
// calls and records engine.shard_call; on a worker it wraps the local
// shard the shardrpc server calls and records shardrpc.worker_exec. The
// difference of the two is what the transport costs.
type traceBackend struct {
	engine.ShardBackend
	t      *tracer
	worker bool
}

// begin opens the span of one backend call and returns the function that
// closes it.
func (b traceBackend) begin() func() {
	o := b.t.cur.Load()
	if o == nil {
		return func() {}
	}
	i := b.ShardIndex()
	s := span{Trace: o.trace, ID: b.t.nextID.Add(1), Shard: i, Start: b.t.now()}
	if b.worker {
		s.Name, s.Parent = "shardrpc.worker_exec", b.t.inflight[i].Load()
	} else {
		s.Name, s.Parent = "engine.shard_call", o.waitID
		b.t.inflight[i].Store(s.ID)
	}
	return func() {
		s.End = b.t.now()
		b.t.record(s)
	}
}

func (b traceBackend) Count(rect geom.Rect) (engine.ShardCount, error) {
	defer b.begin()()
	return b.ShardBackend.Count(rect)
}

func (b traceBackend) RowsIn(rect geom.Rect) (engine.ShardRows, error) {
	defer b.begin()()
	return b.ShardBackend.RowsIn(rect)
}

func (b traceBackend) RowsInAny(rects []geom.Rect) (engine.ShardRows, error) {
	defer b.begin()()
	return b.ShardBackend.RowsInAny(rects)
}

func (b traceBackend) SampleGrid(rect geom.Rect) (engine.ShardSample, error) {
	defer b.begin()()
	return b.ShardBackend.SampleGrid(rect)
}

func (b traceBackend) SortedSlice(dim int, iv geom.Interval) ([]int32, error) {
	defer b.begin()()
	return b.ShardBackend.SortedSlice(dim, iv)
}

func (b traceBackend) ExecuteBatch(items []engine.ShardBatchItem) ([]engine.ShardBatchResult, error) {
	defer b.begin()()
	return b.ShardBackend.ExecuteBatch(items)
}

// countingListener counts the bytes crossing the worker's socket.
type countingListener struct {
	net.Listener
	in, out *atomic.Int64 // read from / written to coordinators
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, in: l.in, out: l.out}, nil
}

type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its children cover. Spans are first clipped to their
// parents, and overlapping siblings (parallel shard calls) are covered
// once. A span whose parent was never recorded counts as a root.
func selfTimes(spans []span) map[int64]time.Duration {
	spans = clipToParents(spans)
	byID := make(map[int64]span, len(spans))
	children := make(map[int64][]span)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if _, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			if lo := max(k.Start, edge); k.End > lo {
				covered += k.End - lo
				edge = k.End
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// clipToParents shrinks every span to its parent's interval, parents
// first: a span the steering goroutine opened before the GET /sample
// handler that waits on it began contributes only the part the handler
// actually waited for.
func clipToParents(spans []span) []span {
	out := append([]span(nil), spans...)
	idx := make(map[int64]int, len(out))
	for i, s := range out {
		idx[s.ID] = i
	}
	done := make([]bool, len(out))
	var clip func(i int)
	clip = func(i int) {
		if done[i] {
			return
		}
		done[i] = true
		pi, ok := idx[out[i].Parent]
		if !ok || out[i].Parent == 0 {
			return
		}
		clip(pi)
		p := out[pi]
		out[i].Start = min(max(out[i].Start, p.Start), p.End)
		out[i].End = max(min(out[i].End, p.End), out[i].Start)
	}
	for i := range out {
		clip(i)
	}
	return out
}
