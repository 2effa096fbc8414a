// Package service exposes AIDE exploration sessions over HTTP+JSON — the
// middleware role AIDE plays in the paper's system architecture, where a
// front-end shows samples to the user and the steering logic runs behind
// it. Each session runs in its own goroutine; the human-in-the-loop
// protocol is sequential, matching the framework's oracle:
//
//	POST   /v1/sessions                 create a session        -> {id}
//	GET    /v1/sessions/{id}/sample     next tuple to label     -> {row, values} (long-poll)
//	POST   /v1/sessions/{id}/label      submit a label          <- {row, relevant}
//	GET    /v1/sessions/{id}/status     progress snapshot
//	GET    /v1/sessions/{id}/query      current predicted query
//	GET    /v1/sessions/{id}/trace      recent per-iteration trace spans
//	GET    /v1/sessions/{id}/events     flight-recorder events (JSONL)
//	DELETE /v1/sessions/{id}            stop and discard
//	GET    /v1/views                    registered views (rows, attrs)
//	GET    /v1/metrics                  process metrics (expvar-style JSON)
//	GET    /v1/slo                      SLO burn-rate status
//	GET    /metrics                     Prometheus text exposition
//	GET    /healthz                     liveness probe (+ SLO detail)
//
// Sessions idle longer than SessionTTL are evicted by the janitor
// (StartJanitor) so abandoned long-poll sessions do not leak.
//
// The Client type wraps the protocol for Go callers.
package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/durable"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/explore"
	"github.com/explore-by-example/aide/internal/faultinject"
	"github.com/explore-by-example/aide/internal/obs"
	"github.com/explore-by-example/aide/internal/shardrpc"
)

// Server routes exploration-session requests over a set of registered
// views. It implements http.Handler.
type Server struct {
	mu       sync.Mutex
	views    map[string]*engine.View
	sessions map[string]*liveSession
	// SampleWait bounds how long GET /sample blocks waiting for the
	// session to propose a tuple (default 30s).
	SampleWait time.Duration
	// SessionTTL is how long a session may sit idle (no requests) before
	// the janitor evicts it (default 30m).
	SessionTTL time.Duration
	// TraceCapacity is how many recent iteration traces each session
	// retains for GET /sessions/{id}/trace (default 64).
	TraceCapacity int
	// FlightCapacity is how many recent flight-recorder events each
	// session retains in memory for GET /sessions/{id}/events (default
	// 256). With Durable set, every event is additionally persisted to a
	// JSONL journal next to the session's WAL.
	FlightCapacity int
	// Metrics is the registry /v1/metrics (JSON) and /metrics (Prometheus
	// text exposition) serve (default obs.Default, which the engine and
	// steering loop report into).
	Metrics *obs.Registry
	// SLO, when set, records every request's latency and outcome and
	// serves multi-window burn rates on GET /v1/slo plus a health detail
	// on /healthz. The long-poll sample endpoint is excluded from SLO
	// accounting: its latency is dominated by user think-time, not
	// service health. Nil disables SLO monitoring.
	SLO *obs.SLOMonitor

	// Durable, when set, write-ahead-logs every session so it survives a
	// process crash: creation parameters and each acknowledged label hit
	// the log before the label is acked, and RecoverSessions replays the
	// logs on start. Nil disables persistence.
	Durable *durable.Manager
	// SnapshotEvery compacts a session's log after this many new labels,
	// replacing the label history with a snapshot record. Compaction
	// bounds replay cost but makes recovery converge-identical rather
	// than bit-identical (snapshot resume reseeds the generator); 0
	// disables compaction. Default 0.
	SnapshotEvery int
	// MaxInflight sheds load: beyond this many concurrent requests the
	// server answers 503 with a Retry-After header instead of queueing.
	// 0 disables shedding.
	MaxInflight int
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxSessionRestarts bounds how many times a panicked session is
	// rebuilt and replayed before it is quarantined (default 2).
	MaxSessionRestarts int
	// DefaultBudget is applied to every session that does not override a
	// given cap in its creation request. Zero fields are unlimited.
	DefaultBudget explore.Budget
	// DefaultConflictPolicy resolves contradictory labels for sessions
	// whose creation request leaves conflict_policy empty (default
	// last-wins).
	DefaultConflictPolicy explore.ConflictPolicy

	// Registry, when set, is where RegisterTable acquires shared views
	// from (nil: engine.SharedViews). Views acquired through a registry
	// are refcounted process-wide: every server — and every session — over
	// the same dataset shares one covering index, so creating a session
	// costs O(1) instead of O(index build) after the first.
	Registry *engine.Registry
	// CacheBytes, when positive, attaches a shared predicate-result cache
	// of roughly this many bytes to each view registered with
	// RegisterTable, memoizing Count/RowsIn across all of the view's
	// sessions (bit-identical results; see engine.Cache). Zero disables.
	CacheBytes int64

	// Shards, when positive, splits each view registered with
	// RegisterTable into that many supervised cell-range shards
	// (engine.View.WithShards). Results are bit-identical to the
	// unsharded view; a failing shard degrades to partial results with a
	// named degradation instead of failing the query. Zero disables.
	Shards int
	// ShardDeadline bounds one shard's attempt; a shard past it is
	// retried and, failing that, dropped from the answer for the op
	// (0: no deadline).
	ShardDeadline time.Duration
	// HedgeAfter launches a hedged duplicate attempt when a shard has
	// not answered after this long (0: no hedging).
	HedgeAfter time.Duration
	// ShardAddrs lists remote shard-worker addresses (host:port for TCP,
	// filesystem paths for unix sockets). With Shards > 0, RegisterTable
	// dials every worker before it builds anything, verifies it serves the
	// same view (fingerprint + shard count pinned in the hello exchange),
	// and routes the shard indexes the worker announces over the shardrpc
	// transport. Workers covering every shard leave this process no index
	// to build, only the table and per-column NaN flags; shards no
	// worker claims stay in-process — a mixed local/remote topology,
	// bit-identical to the all-local one. Workers must serve the view
	// being registered, so ShardAddrs is typically used with exactly one
	// registered view. Empty disables.
	ShardAddrs []string
	// ShardRPC tunes the remote-shard transport (zero value: shardrpc
	// defaults).
	ShardRPC shardrpc.Options

	// acquired tracks the base registry views RegisterTable took, so
	// Close can release them.
	acquired []*engine.View
	// shardClients tracks dialed shard workers, closed with the server.
	shardClients []*shardrpc.Client

	// inflight counts requests currently being served, for the
	// MaxInflight shedding gate.
	inflight atomic.Int64
}

// NewServer creates a server over the given named views.
func NewServer(views map[string]*engine.View) *Server {
	vs := make(map[string]*engine.View, len(views))
	for k, v := range views {
		vs[k] = v
	}
	return &Server{
		views:              vs,
		sessions:           make(map[string]*liveSession),
		SampleWait:         30 * time.Second,
		SessionTTL:         30 * time.Minute,
		TraceCapacity:      64,
		Metrics:            obs.Default,
		MaxBodyBytes:       1 << 20,
		MaxSessionRestarts: 2,
	}
}

// registry returns the view registry RegisterTable acquires from.
func (s *Server) registry() *engine.Registry {
	if s.Registry != nil {
		return s.Registry
	}
	return engine.SharedViews
}

// RegisterTable registers name over a view of tab acquired through the
// server's registry. Servers (and, within a server, sessions) that
// register the same data with the same attrs share one
// immutable view — the covering indexes are built at most once
// process-wide, so after the first registration this is O(1). When
// s.CacheBytes is positive the view also gets a shared predicate-result
// cache memoizing Count/RowsIn across all of its sessions. Call Close to
// release the acquired views. When ShardAddrs' workers announce every
// shard, the view comes from engine.NewRemoteView instead, with no index.
func (s *Server) RegisterTable(name string, tab *dataset.Table, attrs []string) error {
	opts := engine.ShardOptions{Shards: s.Shards, Deadline: s.ShardDeadline, HedgeAfter: s.HedgeAfter}
	var (
		remote    map[int]engine.ShardBackend
		clients   []*shardrpc.Client
		v, shared *engine.View // v is the registry view Close releases; nil for a remote view
		err       error
	)
	if s.Shards > 0 && len(s.ShardAddrs) > 0 {
		if remote, clients, err = s.dialShardWorkers(engine.ViewFingerprint(tab, attrs)); err != nil {
			return err
		}
	}
	if s.Shards > 0 && len(remote) == s.Shards {
		shared, err = engine.NewRemoteView(tab, attrs, opts, remote)
	} else if v, err = s.registry().AcquireSharded(tab, attrs, opts); err == nil {
		shared, err = v.WithShardBackends(remote)
	}
	fail := func(err error) error {
		for _, c := range clients {
			c.Close()
		}
		s.registry().Release(v)
		return err
	}
	if err != nil {
		return fail(err)
	}
	if s.CacheBytes > 0 && shared.Cache() == nil {
		shared = shared.WithCache(engine.NewCache(s.CacheBytes))
	}
	s.mu.Lock()
	if _, dup := s.views[name]; dup {
		s.mu.Unlock()
		return fail(fmt.Errorf("service: view %q already registered", name))
	}
	if s.views == nil {
		s.views = make(map[string]*engine.View)
	}
	s.views[name] = shared
	if v != nil {
		s.acquired = append(s.acquired, v)
	}
	s.shardClients = append(s.shardClients, clients...)
	s.mu.Unlock()
	return nil
}

// View returns the view registered under name, nil when there is none.
func (s *Server) View(name string) *engine.View {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.views[name]
}

// dialShardWorkers connects to every configured shard worker for the
// view with fingerprint fp, sharded s.Shards ways, and collects the
// remote backends they announce. Two workers claiming the same shard is
// a topology error.
func (s *Server) dialShardWorkers(fp string) (map[int]engine.ShardBackend, []*shardrpc.Client, error) {
	remote := make(map[int]engine.ShardBackend)
	var clients []*shardrpc.Client
	fail := func(err error) (map[int]engine.ShardBackend, []*shardrpc.Client, error) {
		for _, c := range clients {
			c.Close()
		}
		return nil, nil, err
	}
	for _, addr := range s.ShardAddrs {
		c, err := shardrpc.Dial(addr, fp, s.Shards, s.ShardRPC)
		if err != nil {
			return fail(fmt.Errorf("service: shard worker %s: %w", addr, err))
		}
		clients = append(clients, c)
		for idx, b := range c.Backends() {
			if _, dup := remote[idx]; dup {
				return fail(fmt.Errorf("service: shard %d claimed by two workers (%s)", idx, addr))
			}
			remote[idx] = b
		}
	}
	return remote, clients, nil
}

// Close releases every registry view acquired by RegisterTable. Views
// passed directly to NewServer are untouched. Safe to call more than
// once.
func (s *Server) Close() {
	s.mu.Lock()
	acquired := s.acquired
	s.acquired = nil
	clients := s.shardClients
	s.shardClients = nil
	s.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	for _, v := range acquired {
		s.registry().Release(v)
	}
}

// Views lists the registered view names.
func (s *Server) Views() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.views))
	for k := range s.views {
		out = append(out, k)
	}
	return out
}

// ViewInfo is one registered view's metadata, served by GET /v1/views.
type ViewInfo struct {
	Name  string   `json:"name"`
	Rows  int      `json:"rows"`
	Attrs []string `json:"attrs"`
}

// ViewShardHealth is one sharded view's supervisor snapshot, served on
// /healthz and /v1/slo. A quarantined shard means queries over the view
// degrade to named partial results ("shard_partial:n/N"); it does NOT
// make the service unhealthy — the view is degraded but serving.
type ViewShardHealth struct {
	View    string                   `json:"view"`
	Shards  int                      `json:"shards"`
	Healthy int                      `json:"healthy"`
	States  []engine.ShardHealthInfo `json:"states"`
}

// Degraded reports whether any shard is off the healthy state.
func (h ViewShardHealth) Degraded() bool { return h.Healthy < h.Shards }

// ShardHealth returns the supervisor snapshot of every sharded view,
// sorted by view name (nil when no view is sharded).
func (s *Server) ShardHealth() []ViewShardHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ViewShardHealth
	for name, v := range s.views {
		infos := v.ShardHealth()
		if infos == nil {
			continue
		}
		h := ViewShardHealth{View: name, Shards: len(infos), States: infos}
		for _, si := range infos {
			if si.State == engine.ShardHealthy.String() {
				h.Healthy++
			}
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].View < out[j].View })
	return out
}

// ViewInfos returns metadata for every registered view, sorted by name.
func (s *Server) ViewInfos() []ViewInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ViewInfo, 0, len(s.views))
	for name, v := range s.views {
		out = append(out, ViewInfo{Name: name, Rows: v.NumRows(), Attrs: v.Attrs()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TraceResponse is the reply to GET /v1/sessions/{id}/trace: the
// session's most recent per-iteration trace trees, oldest first.
type TraceResponse struct {
	ID   string `json:"id"`
	View string `json:"view"`
	// Total counts every iteration traced over the session's lifetime;
	// Spans holds only the most recent ones (bounded ring buffer).
	Total int64          `json:"total_iterations"`
	Spans []obs.SpanData `json:"spans"`
}

// ExpireIdle evicts every session idle longer than ttl, returning how
// many were evicted. The janitor calls this periodically; tests may call
// it directly.
//
// Eviction frees memory and goroutines, not durability: the session's
// write-ahead log is synced and closed but left on disk, so a server
// restart resurrects the exploration via RecoverSessions. Only an
// explicit DELETE destroys the log.
func (s *Server) ExpireIdle(ttl time.Duration) int {
	cutoff := time.Now().Add(-ttl).UnixNano()
	var victims []*liveSession
	s.mu.Lock()
	for id, ls := range s.sessions {
		if ls.lastActive.Load() < cutoff {
			victims = append(victims, ls)
			delete(s.sessions, id)
		}
	}
	s.mu.Unlock()
	for _, ls := range victims {
		ls.cancel()
		if ls.wal != nil {
			_ = ls.wal.Close()
		}
		ls.closeEvents()
		obsSessionsExpired.Inc()
		obsSessionsActive.Add(-1)
	}
	return len(victims)
}

// StartJanitor runs the idle-session janitor every interval until ctx is
// cancelled, evicting sessions idle longer than SessionTTL so abandoned
// long-poll sessions do not leak goroutines or memory.
func (s *Server) StartJanitor(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Minute
	}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				ttl := s.SessionTTL
				if ttl <= 0 {
					ttl = 30 * time.Minute
				}
				s.ExpireIdle(ttl)
			}
		}
	}()
}

// labelRequest is one pending "please label this tuple" exchange between
// the session goroutine and HTTP handlers.
type labelRequest struct {
	row   int
	reply chan bool
}

// sessionStatus is the progress snapshot handlers serve; the session
// goroutine replaces it after every iteration.
type sessionStatus struct {
	Iteration     int     `json:"iteration"`
	TotalLabeled  int     `json:"total_labeled"`
	TotalRelevant int     `json:"total_relevant"`
	RelevantAreas int     `json:"relevant_areas"`
	Done          bool    `json:"done"`
	SQL           string  `json:"sql"`
	WaitSeconds   float64 `json:"avg_wait_seconds"`
	// Conflicts summarizes contradictory labels seen so far and how the
	// session resolved them.
	Conflicts explore.ConflictStats `json:"conflicts"`
	// Degradations lists the budget fallbacks applied in the most recent
	// iteration (empty when the session ran unconstrained).
	Degradations []string `json:"degradations,omitempty"`
}

// liveSession is one running exploration.
type liveSession struct {
	id      string
	view    string
	cancel  context.CancelFunc
	ctx     context.Context
	pending chan labelRequest
	current chan labelRequest // holds the request being labeled, capacity 1
	rec     *obs.Recorder     // per-iteration trace ring buffer

	// flight is the session's wide-event journal; events, when non-nil,
	// is its persistent JSONL sink next to the WAL.
	flight *obs.FlightRecorder
	events *os.File

	// reqIDs collects the ids of requests that drove the session since
	// the last iteration; the span annotator stamps them on the next
	// iteration's root span (bounded — overflow is counted, not stored).
	reqMu      sync.Mutex
	reqIDs     []string
	reqDropped int

	// Creation parameters, kept for the WAL create record and for
	// rebuilding the session after a panic.
	req     CreateSessionRequest
	opts    explore.Options
	created []byte // marshaled req: the WAL create payload

	// wal is the session's write-ahead log (nil: persistence off).
	wal *durable.Log

	// lastActive is the unix-nano time of the last request touching this
	// session; the janitor evicts sessions idle past the TTL.
	lastActive atomic.Int64

	// Label history: every acknowledged (row, relevant) pair, recorded
	// before the label is acked. It is the session's source of truth for
	// replay — a rebuilt or recovered session's oracle consults it first,
	// so known rows are answered instantly and the deterministic steering
	// loop reproduces the exact same trajectory without re-asking the
	// user.
	histMu       sync.Mutex
	hist         map[int]bool
	histN        int
	baseSnapshot []byte // latest compaction snapshot; replay starts here
	compactedAt  int    // histN at the last compaction

	mu       sync.Mutex
	status   sessionStatus
	err      error
	restarts int // panic rebuilds so far
}

// histGet reports a recorded label.
func (ls *liveSession) histGet(row int) (bool, bool) {
	ls.histMu.Lock()
	defer ls.histMu.Unlock()
	lab, ok := ls.hist[row]
	return lab, ok
}

// recordLabel persists one acknowledged label: history first, then the
// WAL. An append error means the label is NOT durable and the caller
// must not ack it.
func (ls *liveSession) recordLabel(row int, relevant bool) error {
	if ls.wal != nil {
		if err := ls.wal.AppendLabel(int64(row), relevant); err != nil {
			return err
		}
	}
	ls.histMu.Lock()
	ls.hist[row] = relevant
	ls.histN++
	ls.histMu.Unlock()
	return nil
}

// histCount returns how many labels were recorded.
func (ls *liveSession) histCount() int {
	ls.histMu.Lock()
	defer ls.histMu.Unlock()
	return ls.histN
}

// touch marks the session as active now.
func (ls *liveSession) touch() { ls.lastActive.Store(time.Now().UnixNano()) }

func (ls *liveSession) snapshot() (sessionStatus, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.status, ls.err
}

// CreateSessionRequest is the body of POST /v1/sessions.
type CreateSessionRequest struct {
	// View names a view registered with the server.
	View string `json:"view"`
	// Seed drives the session's randomness.
	Seed int64 `json:"seed"`
	// SamplesPerIteration caps labels per iteration (0: default 20).
	SamplesPerIteration int `json:"samples_per_iteration,omitempty"`
	// Discovery is "grid", "clustering" or "hybrid" ("" = grid).
	Discovery string `json:"discovery,omitempty"`
	// DistanceHint, when positive, is the minimum relevant-area width
	// promise (normalized units).
	DistanceHint float64 `json:"distance_hint,omitempty"`
	// MaxIterations bounds the session (0: default 200).
	MaxIterations int `json:"max_iterations,omitempty"`
	// ConflictPolicy resolves contradictory labels for the same tuple:
	// "last-wins", "majority" or "strict" ("" = server default).
	ConflictPolicy string `json:"conflict_policy,omitempty"`
	// MaxLabeledRows caps the session's total labeled rows (0 = server
	// default; the session idles once the cap is hit).
	MaxLabeledRows int `json:"max_labeled_rows,omitempty"`
	// MaxIterationMillis soft-caps one steering iteration's wall time;
	// the iteration finishes early with a degradation instead of failing.
	MaxIterationMillis int64 `json:"max_iteration_millis,omitempty"`
	// MaxSamplesPerIteration hard-caps labels per iteration below
	// SamplesPerIteration.
	MaxSamplesPerIteration int `json:"max_samples_per_iteration,omitempty"`
	// MaxTreeNodes caps the decision-tree classifier's size.
	MaxTreeNodes int `json:"max_tree_nodes,omitempty"`
	// MaxMemBytes bounds estimated per-iteration scratch memory;
	// clustering discovery degrades to grid when it would exceed this.
	MaxMemBytes int64 `json:"max_mem_bytes,omitempty"`
	// CacheBytes, when positive, attaches a session-private predicate
	// result cache of roughly this many bytes (no effect when the view
	// already carries a server-wide shared cache, which then wins).
	CacheBytes int64 `json:"cache_bytes,omitempty"`
	// ViewFingerprint is set by the server on the persisted creation
	// record (not by clients): the content fingerprint of the view the
	// session was created over. Crash recovery refuses to replay a log
	// against a view whose data has changed since.
	ViewFingerprint string `json:"view_fingerprint,omitempty"`
}

// CreateSessionResponse is the reply to POST /v1/sessions.
type CreateSessionResponse struct {
	ID string `json:"id"`
}

// Sample is one tuple awaiting a label.
type Sample struct {
	Row    int                `json:"row"`
	Values map[string]float64 `json:"values"`
	// Done reports the session has finished; Row is invalid.
	Done bool `json:"done"`
}

// LabelRequest is the body of POST /v1/sessions/{id}/label.
type LabelRequest struct {
	Row      int  `json:"row"`
	Relevant bool `json:"relevant"`
}

// QueryResponse is the reply to GET /v1/sessions/{id}/query.
type QueryResponse struct {
	SQL   string     `json:"sql"`
	Areas [][]Bounds `json:"areas"`
	Attrs []string   `json:"attrs"`
	Table string     `json:"table"`
}

// Bounds is one attribute range of a predicted area.
type Bounds struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// ServeHTTP implements http.Handler. Every request is counted and timed
// per endpoint into the obs registry. Requests beyond MaxInflight are
// shed with 503 + Retry-After before any work happens — and the
// fault-injection gate sits at the same pre-dispatch point, so an
// injected 503 is as side-effect-free (and as safely retryable) as a
// shed one.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := wrapStatus(w)
	n := s.inflight.Add(1)
	obsInflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		obsInflight.Add(-1)
	}()
	endpoint := "shed"
	switch {
	case r.URL.Path == "/healthz":
		// The liveness probe is never shed or fault-injected: it answers
		// as long as the process is alive, which is what it measures.
		endpoint = s.dispatch(sw, r)
	case s.MaxInflight > 0 && n > int64(s.MaxInflight):
		obsShedRequests.Inc()
		sw.Header().Set("Retry-After", "1")
		httpError(sw, http.StatusServiceUnavailable, "server overloaded; retry")
	case faultinject.Err("service.request") != nil:
		// Injected pre-dispatch unavailability: nothing has been read or
		// mutated, so clients retry like a shed request — at once, since
		// no load is behind it to wait out.
		endpoint = "fault"
		sw.Header().Set("Retry-After", "0")
		httpError(sw, http.StatusServiceUnavailable, "injected unavailability; retry")
	default:
		endpoint = s.dispatch(sw, r)
	}
	httpRequests(endpoint).Inc()
	httpSeconds(endpoint).Observe(time.Since(start).Seconds())
	if sw.status >= 400 {
		obsHTTPErrors.Inc()
	}
	// SLO accounting: every request except the long-poll sample endpoint
	// (whose latency is user think-time, not service health). 5xx counts
	// against the availability objective. Record is nil-safe.
	if endpoint != "sample" {
		s.SLO.Record(time.Since(start), sw.status >= 500)
	}
}

// dispatch routes the request and returns the endpoint label its metrics
// are recorded under.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request) string {
	if r.URL.Path == "/healthz" && r.Method == http.MethodGet {
		// Liveness stays "ok" as long as the process answers; the SLO
		// detail rides along so probes can see burn-rate degradation
		// without flipping liveness.
		resp := map[string]any{"status": "ok"}
		if s.SLO != nil {
			st := s.SLO.Status()
			resp["slo_healthy"] = st.Healthy
			resp["slo"] = st
		}
		if sh := s.ShardHealth(); sh != nil {
			// Shard detail rides along like the SLO detail does: a
			// quarantined shard marks the response degraded without ever
			// flipping liveness — the process is alive and serving partial
			// results by contract.
			resp["shards"] = sh
			for _, h := range sh {
				if h.Degraded() {
					resp["shards_degraded"] = true
					break
				}
			}
		}
		writeJSON(w, http.StatusOK, resp)
		return "healthz"
	}
	if r.URL.Path == "/metrics" && r.Method == http.MethodGet {
		reg := s.Metrics
		if reg == nil {
			reg = obs.Default
		}
		reg.PromHandler().ServeHTTP(w, r)
		return "prometheus"
	}
	path := strings.TrimPrefix(r.URL.Path, "/v1/")
	switch {
	case path == "sessions" && r.Method == http.MethodPost:
		s.createSession(w, r)
		return "create_session"
	case strings.HasPrefix(path, "sessions/"):
		rest := strings.TrimPrefix(path, "sessions/")
		parts := strings.SplitN(rest, "/", 2)
		id := parts[0]
		action := ""
		if len(parts) == 2 {
			action = parts[1]
		}
		return s.dispatchSession(w, r, id, action)
	case path == "views" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, map[string][]ViewInfo{"views": s.ViewInfos()})
		return "views"
	case path == "metrics" && r.Method == http.MethodGet:
		reg := s.Metrics
		if reg == nil {
			reg = obs.Default
		}
		reg.Handler().ServeHTTP(w, r)
		return "metrics"
	case path == "slo" && r.Method == http.MethodGet:
		// Shard health is reported next to — never folded into — the SLO
		// verdict: quarantined shards degrade answers by contract, they do
		// not burn the availability budget.
		writeJSON(w, http.StatusOK, struct {
			obs.SLOStatus
			Shards []ViewShardHealth `json:"shards,omitempty"`
		}{s.SLO.Status(), s.ShardHealth()})
		return "slo"
	default:
		httpError(w, http.StatusNotFound, "no such endpoint")
		return "notfound"
	}
}

func (s *Server) dispatchSession(w http.ResponseWriter, r *http.Request, id, action string) string {
	s.mu.Lock()
	ls := s.sessions[id]
	s.mu.Unlock()
	if ls == nil {
		httpError(w, http.StatusNotFound, "no such session")
		return "session_notfound"
	}
	ls.touch()
	// A quarantined session answers every interaction with its failure
	// (and the request ID, for correlating with server logs) instead of
	// hanging a long poll against a dead goroutine. DELETE still works so
	// the client can discard it; status/trace still work for diagnosis.
	if action == "sample" || action == "label" || action == "query" {
		ls.mu.Lock()
		failed := ls.err
		ls.mu.Unlock()
		if failed != nil {
			httpErrorCtx(w, r, http.StatusInternalServerError, "session failed: "+failed.Error())
			return "quarantined"
		}
	}
	switch {
	case action == "" && r.Method == http.MethodDelete:
		s.deleteSession(w, id, ls)
		return "delete_session"
	case action == "sample" && r.Method == http.MethodGet:
		s.nextSample(w, r, ls)
		return "sample"
	case action == "label" && r.Method == http.MethodPost:
		s.label(w, r, ls)
		return "label"
	case action == "status" && r.Method == http.MethodGet:
		st, err := ls.snapshot()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return "status"
		}
		writeJSON(w, http.StatusOK, st)
		return "status"
	case action == "trace" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, TraceResponse{
			ID:    ls.id,
			View:  ls.view,
			Total: ls.rec.Total(),
			Spans: ls.rec.Snapshot(),
		})
		return "trace"
	case action == "events" && r.Method == http.MethodGet:
		// The retained flight-recorder events, streamed as JSONL — the
		// same format the persistent journal holds.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_ = ls.flight.WriteJSONL(w)
		return "events"
	case action == "query" && r.Method == http.MethodGet:
		st, _ := ls.snapshot()
		var resp QueryResponse
		if err := json.Unmarshal([]byte(st.SQL), &resp); err != nil {
			// SQL field holds the marshaled QueryResponse; see runSession.
			httpError(w, http.StatusInternalServerError, "no query available yet")
			return "query"
		}
		writeJSON(w, http.StatusOK, resp)
		return "query"
	default:
		httpError(w, http.StatusMethodNotAllowed, "unsupported method or action")
		return "badaction"
	}
}

// optsFromRequest validates and translates the wire-level creation
// parameters, layering server-wide budget and conflict-policy defaults
// under the request's explicit values. It is shared by session creation,
// crash recovery and post-panic rebuild so all three produce the
// identical configuration.
func (s *Server) optsFromRequest(req CreateSessionRequest) (explore.Options, error) {
	opts := explore.DefaultOptions()
	opts.Seed = req.Seed
	if req.SamplesPerIteration > 0 {
		opts.SamplesPerIteration = req.SamplesPerIteration
	}
	if req.MaxIterations > 0 {
		opts.MaxIterations = req.MaxIterations
	}
	if req.DistanceHint > 0 {
		opts.DistanceHint = req.DistanceHint
	}
	switch req.Discovery {
	case "", "grid":
		opts.Discovery = explore.DiscoveryGrid
	case "clustering":
		opts.Discovery = explore.DiscoveryClustering
	case "hybrid":
		opts.Discovery = explore.DiscoveryHybrid
	default:
		return opts, fmt.Errorf("unknown discovery strategy %q", req.Discovery)
	}
	opts.ConflictPolicy = s.DefaultConflictPolicy
	if req.ConflictPolicy != "" {
		policy, err := explore.ParseConflictPolicy(req.ConflictPolicy)
		if err != nil {
			return opts, err
		}
		opts.ConflictPolicy = policy
	}
	opts.Budget = s.DefaultBudget
	if req.MaxLabeledRows != 0 {
		opts.Budget.MaxLabeledRows = req.MaxLabeledRows
	}
	if req.MaxIterationMillis != 0 {
		opts.Budget.MaxIterationTime = time.Duration(req.MaxIterationMillis) * time.Millisecond
	}
	if req.MaxSamplesPerIteration != 0 {
		opts.Budget.MaxSamplesPerIteration = req.MaxSamplesPerIteration
	}
	if req.MaxTreeNodes != 0 {
		opts.Budget.MaxTreeNodes = req.MaxTreeNodes
	}
	if req.MaxMemBytes != 0 {
		opts.Budget.MaxMemBytes = req.MaxMemBytes
	}
	if req.CacheBytes != 0 {
		opts.CacheBytes = req.CacheBytes
	}
	return opts, nil
}

// newLiveSession builds the bookkeeping side of a session.
func (s *Server) newLiveSession(id string, req CreateSessionRequest, opts explore.Options) *liveSession {
	ctx, cancel := context.WithCancel(context.Background())
	payload, _ := json.Marshal(req)
	ls := &liveSession{
		id:      id,
		view:    req.View,
		ctx:     ctx,
		cancel:  cancel,
		pending: make(chan labelRequest),
		rec:     obs.NewRecorder(s.TraceCapacity),
		req:     req,
		opts:    opts,
		created: payload,
		hist:    make(map[int]bool),
	}
	ls.touch()
	return ls
}

// oracleFor builds the session's oracle. Recorded labels answer
// instantly — that is what makes post-panic rebuild and crash-recovery
// replay reproduce the original trajectory without re-asking the user —
// and unknown rows block on the HTTP label exchange.
func (s *Server) oracleFor(ls *liveSession) explore.Oracle {
	return explore.OracleFunc(func(v *engine.View, row int) bool {
		if lab, ok := ls.histGet(row); ok {
			return lab
		}
		reply := make(chan bool, 1)
		select {
		case ls.pending <- labelRequest{row: row, reply: reply}:
		case <-ls.ctx.Done():
			return false
		}
		select {
		case lab := <-reply:
			return lab
		case <-ls.ctx.Done():
			return false
		}
	})
}

func (s *Server) createSession(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody())
	var req CreateSessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	s.mu.Lock()
	view := s.views[req.View]
	s.mu.Unlock()
	if view == nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown view %q", req.View))
		return
	}
	opts, err := s.optsFromRequest(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Stamp the view's content fingerprint into the creation record before
	// it is marshaled into the WAL, so recovery can refuse to replay the
	// session against changed data.
	req.ViewFingerprint = view.Fingerprint()
	ls := s.newLiveSession(newID(), req, opts)
	sess, err := explore.NewSession(view, s.oracleFor(ls), opts)
	if err != nil {
		ls.cancel()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	if s.Durable != nil {
		log, err := s.Durable.Create(ls.id, ls.created)
		if err != nil {
			ls.cancel()
			httpErrorCtx(w, r, http.StatusInternalServerError, "persisting session: "+err.Error())
			return
		}
		ls.wal = log
	}
	s.openFlight(ls)
	ls.instrument(sess)

	s.mu.Lock()
	s.sessions[ls.id] = ls
	s.mu.Unlock()
	obsSessionsCreated.Inc()
	obsSessionsActive.Add(1)

	go s.runSession(ls, sess, view)
	writeJSON(w, http.StatusCreated, CreateSessionResponse{ID: ls.id})
}

// maxBody returns the request-body cap.
func (s *Server) maxBody() int64 {
	if s.MaxBodyBytes > 0 {
		return s.MaxBodyBytes
	}
	return 1 << 20
}

// safeIteration runs one iteration with the session-lifetime context
// bound to it, converting a panic anywhere below — classifier, engine
// kernels, injected faults — into an error instead of killing the
// process.
func safeIteration(ls *liveSession, sess *explore.Session) (res *explore.IterationResult, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("service: session %s iteration panicked: %v", ls.id, r)
		}
	}()
	res, err = sess.RunIterationCtx(ls.ctx)
	return res, err, false
}

// rebuildSession reconstructs the exploration after a panic poisoned
// the in-memory state. The label history answers every already-given
// label instantly, so the deterministic steering loop fast-forwards
// through the same trajectory; if a compaction snapshot exists the
// rebuild resumes from it instead of replaying from scratch.
func (s *Server) rebuildSession(ls *liveSession, view *engine.View) (*explore.Session, error) {
	ls.histMu.Lock()
	snap := ls.baseSnapshot
	ls.histMu.Unlock()
	var (
		sess *explore.Session
		err  error
	)
	if snap != nil {
		sess, err = explore.Resume(bytes.NewReader(snap), view, s.oracleFor(ls))
	} else {
		sess, err = explore.NewSession(view, s.oracleFor(ls), ls.opts)
	}
	if err != nil {
		return nil, err
	}
	ls.instrument(sess)
	return sess, nil
}

// maybeCompact snapshots and compacts the session's WAL once enough
// labels accumulated since the last compaction. Runs on the session
// goroutine between iterations, where the snapshot is consistent.
func (s *Server) maybeCompact(ls *liveSession, sess *explore.Session) {
	if s.SnapshotEvery <= 0 || ls.wal == nil {
		return
	}
	ls.histMu.Lock()
	due := ls.histN-ls.compactedAt >= s.SnapshotEvery
	ls.histMu.Unlock()
	if !due {
		return
	}
	var buf bytes.Buffer
	if err := sess.Save(&buf); err != nil {
		return // snapshotting is an optimization; the label log still has everything
	}
	if err := ls.wal.Compact(ls.created, buf.Bytes(), nil); err != nil {
		return
	}
	ls.histMu.Lock()
	ls.baseSnapshot = buf.Bytes()
	ls.compactedAt = ls.histN
	ls.histMu.Unlock()
}

// runSession drives the steering loop until cancellation, exhaustion or
// the iteration cap, keeping the status snapshot current. A panic in an
// iteration does not kill the session, let alone the server: the
// session is rebuilt from the label history and replayed, up to
// MaxSessionRestarts times, after which it is quarantined — its error
// is served with a 500 on further requests while every other session
// keeps running.
func (s *Server) runSession(ls *liveSession, sess *explore.Session, view *engine.View) {
	defer ls.cancel()
	maxIter := ls.opts.MaxIterations
	update := func(res *explore.IterationResult, done bool) {
		q := sess.FinalQuery()
		qr := QueryResponse{SQL: q.SQL(), Attrs: q.Attrs, Table: q.Table}
		for _, a := range q.Areas {
			bounds := make([]Bounds, len(a))
			for d := range a {
				bounds[d] = Bounds{Lo: a[d].Lo, Hi: a[d].Hi}
			}
			qr.Areas = append(qr.Areas, bounds)
		}
		payload, _ := json.Marshal(qr)
		st := sess.Stats()
		status := sessionStatus{
			TotalLabeled:  st.TotalLabeled,
			TotalRelevant: st.TotalRelevant,
			Iteration:     st.Iterations,
			Done:          done,
			SQL:           string(payload),
			Conflicts:     st.Conflicts,
			Degradations:  st.Degradations,
		}
		if res != nil {
			status.RelevantAreas = res.RelevantAreas
		}
		if st.Iterations > 0 {
			status.WaitSeconds = st.ExecTime.Seconds() / float64(st.Iterations)
		}
		ls.mu.Lock()
		ls.status = status
		ls.mu.Unlock()
	}
	update(nil, false)

	idle := 0
	for sess.Stats().Iterations < maxIter {
		if ls.ctx.Err() != nil {
			break
		}
		res, err, panicked := safeIteration(ls, sess)
		if panicked {
			obsRecoveredPanics.Inc()
			ls.mu.Lock()
			ls.restarts++
			restarts := ls.restarts
			ls.mu.Unlock()
			if restarts > s.maxRestarts() {
				// Quarantine: the session keeps panicking even from a
				// clean replay, so its state (or the data under it) is
				// poisoned. Mark it failed and stop; the server and all
				// other sessions are unaffected.
				obsQuarantined.Inc()
				obsSessionErrors.Inc()
				ls.mu.Lock()
				ls.err = err
				ls.mu.Unlock()
				break
			}
			obsSessionRestarts.Inc()
			rebuilt, rerr := s.rebuildSession(ls, view)
			if rerr != nil {
				obsSessionErrors.Inc()
				ls.mu.Lock()
				ls.err = fmt.Errorf("service: rebuilding after panic: %w", rerr)
				ls.mu.Unlock()
				break
			}
			sess = rebuilt
			continue
		}
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				break // session shut down mid-iteration; not a failure
			}
			obsSessionErrors.Inc()
			ls.mu.Lock()
			ls.err = err
			ls.mu.Unlock()
			break
		}
		done := false
		if res.NewSamples == 0 {
			idle++
			done = idle >= 3
		} else {
			idle = 0
		}
		update(res, done || sess.Stats().Iterations >= maxIter)
		s.maybeCompact(ls, sess)
		if done {
			break
		}
	}
	// Mark done on exit regardless of why.
	ls.mu.Lock()
	ls.status.Done = true
	ls.mu.Unlock()
}

// maxRestarts returns the panic-rebuild budget.
func (s *Server) maxRestarts() int {
	if s.MaxSessionRestarts > 0 {
		return s.MaxSessionRestarts
	}
	return 2
}

func (s *Server) nextSample(w http.ResponseWriter, r *http.Request, ls *liveSession) {
	wait := s.SampleWait
	if wait <= 0 {
		wait = 30 * time.Second
	}
	start := time.Now()
	// The long-poll wait — how long the handler blocked before a sample
	// (or timeout/cancellation) arrived — is the user-facing latency the
	// paper's system-execution-time metric measures.
	defer func() { obsSampleWait.Observe(time.Since(start).Seconds()) }()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case req := <-ls.pending:
		// Park the request for the matching POST /label.
		ls.mu.Lock()
		if ls.current == nil {
			ls.current = make(chan labelRequest, 1)
		}
		cur := ls.current
		ls.mu.Unlock()
		cur <- req
		view := s.viewOf(ls)
		values := map[string]float64{}
		if view != nil {
			full := view.FullRow(req.row)
			for i, name := range view.Table().Schema().Names() {
				values[name] = full[i]
			}
		}
		writeJSON(w, http.StatusOK, Sample{Row: req.row, Values: values})
	case <-ls.ctx.Done():
		writeJSON(w, http.StatusOK, Sample{Done: true})
	case <-r.Context().Done():
		httpError(w, http.StatusRequestTimeout, "client went away")
	case <-timer.C:
		st, _ := ls.snapshot()
		if st.Done {
			writeJSON(w, http.StatusOK, Sample{Done: true})
			return
		}
		httpError(w, http.StatusServiceUnavailable, "no sample pending; retry")
	}
}

func (s *Server) label(w http.ResponseWriter, r *http.Request, ls *liveSession) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody())
	var req LabelRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	ls.mu.Lock()
	cur := ls.current
	ls.mu.Unlock()
	if cur == nil {
		httpError(w, http.StatusConflict, "no sample outstanding; GET /sample first")
		return
	}
	select {
	case pending := <-cur:
		if pending.row != req.Row {
			// Put it back: the label names the wrong tuple.
			cur <- pending
			httpError(w, http.StatusConflict, fmt.Sprintf("outstanding sample is row %d, not %d", pending.row, req.Row))
			return
		}
		// Remember which request drove this label so the next iteration's
		// root span can be correlated with the request log.
		ls.noteRequest(RequestIDFrom(r.Context()))
		// Write-ahead: the label reaches history and the WAL before it
		// is acked or fed to the session, so an acked label survives a
		// crash and an unpersisted one is never acked.
		if err := ls.recordLabel(req.Row, req.Relevant); err != nil {
			cur <- pending // still outstanding; the client may retry
			httpErrorCtx(w, r, http.StatusInternalServerError, "persisting label: "+err.Error())
			return
		}
		pending.reply <- req.Relevant
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	default:
		httpError(w, http.StatusConflict, "no sample outstanding; GET /sample first")
	}
}

func (s *Server) deleteSession(w http.ResponseWriter, id string, ls *liveSession) {
	ls.cancel()
	s.mu.Lock()
	_, present := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if present {
		obsSessionsDeleted.Inc()
		obsSessionsActive.Add(-1)
	}
	// An explicit DELETE is the one operation that destroys durable
	// state: the user discarded the exploration, so its log — and its
	// flight journal — go too. (Janitor eviction, by contrast, keeps
	// both; see ExpireIdle.)
	s.removeEvents(ls)
	if s.Durable != nil {
		_ = s.Durable.Remove(id)
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Server) viewOf(ls *liveSession) *engine.View {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.views[ls.view]
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// httpErrorCtx is httpError plus the request ID (when the request-log
// middleware assigned one), so a client-visible failure can be matched
// to the server-side log line and stack trace.
func httpErrorCtx(w http.ResponseWriter, r *http.Request, code int, msg string) {
	body := map[string]string{"error": msg}
	if id := RequestIDFrom(r.Context()); id != "" {
		body["request_id"] = id
	}
	writeJSON(w, code, body)
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable; fall back to a constant
		// would collide, so panic loudly.
		panic(fmt.Sprintf("service: crypto/rand: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// ErrSessionDone is returned by Client.NextSample when the session has
// finished.
var ErrSessionDone = errors.New("service: session done")
