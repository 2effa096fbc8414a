// Command aideserver runs the AIDE exploration service: an HTTP+JSON API
// through which front-ends drive explore-by-example sessions, matching
// the middleware role AIDE plays in the paper's architecture.
//
//	aideserver -listen :8080 -sdss 100000 -auction 50000
//	aideserver -listen :8080 -csv items=items.csv -log-format json -pprof
//
// Protocol (see the service package for details):
//
//	POST   /v1/sessions                {"view":"sdss","seed":1}
//	GET    /v1/sessions/{id}/sample    next tuple to label
//	POST   /v1/sessions/{id}/label     {"row":123,"relevant":true}
//	GET    /v1/sessions/{id}/status
//	GET    /v1/sessions/{id}/query
//	GET    /v1/sessions/{id}/trace     per-iteration trace spans
//	GET    /v1/sessions/{id}/events    flight-recorder events (JSONL)
//	DELETE /v1/sessions/{id}
//	GET    /v1/views                   view metadata (rows, attrs)
//	GET    /v1/metrics                 process metrics (expvar-style)
//	GET    /v1/slo                     SLO burn-rate status
//	GET    /metrics                    Prometheus text exposition
//	GET    /healthz                    liveness probe (+ SLO detail)
//	GET    /debug/pprof/...            profiling (only with -pprof)
//
// The server logs one structured line per request (with a request id),
// recovers panics without dying, evicts sessions idle longer than
// -session-ttl, and shuts down gracefully on SIGINT/SIGTERM.
//
// With -data-dir set, every session is backed by a write-ahead log and
// survives a crash: on start the server replays the logs it finds and
// resurrects the sessions under their original IDs (see -fsync and
// -snapshot-every for the durability/cost trade-offs).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/durable"
	"github.com/explore-by-example/aide/internal/explore"
	"github.com/explore-by-example/aide/internal/obs"
	"github.com/explore-by-example/aide/internal/service"
)

// csvFlags collects repeated -csv name=path flags.
type csvFlags map[string]string

func (c csvFlags) String() string { return fmt.Sprint(map[string]string(c)) }

func (c csvFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=path, got %q", v)
	}
	c[name] = path
	return nil
}

func main() {
	var (
		listen      = flag.String("listen", ":8080", "listen address")
		sdssRows    = flag.Int("sdss", 100_000, "rows of the built-in SDSS view (0 to disable)")
		auctionRows = flag.Int("auction", 0, "rows of the built-in AuctionMark view (0 to disable)")
		seed        = flag.Int64("seed", 1, "dataset generation seed")
		attrs       = flag.String("sdss-attrs", "rowc,colc", "exploration attributes of the SDSS view")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		pprofOn     = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		sessionTTL  = flag.Duration("session-ttl", 30*time.Minute, "evict sessions idle longer than this")

		dataDir       = flag.String("data-dir", "", "write-ahead log directory; empty disables durability")
		fsyncMode     = flag.String("fsync", "always", "WAL fsync policy: always, interval or never")
		fsyncEvery    = flag.Duration("fsync-interval", 100*time.Millisecond, "sync window for -fsync=interval")
		snapshotEvery = flag.Int("snapshot-every", 0, "compact the WAL around a snapshot every N labels (0 keeps the full label history and bit-identical recovery)")

		requestTimeout    = flag.Duration("request-timeout", time.Minute, "per-request handler deadline (0 disables); keep it above the sample long-poll window")
		readTimeout       = flag.Duration("read-timeout", 1*time.Minute, "max duration reading an entire request")
		writeTimeout      = flag.Duration("write-timeout", 2*time.Minute, "max duration writing a response")
		readHeaderTimeout = flag.Duration("read-header-timeout", 10*time.Second, "max duration reading request headers")
		maxInflight       = flag.Int("max-inflight", 0, "shed requests with 503 beyond this many in flight (0 disables)")
		maxBodyBytes      = flag.Int64("max-body-bytes", 1<<20, "largest accepted request body")
		addrFile          = flag.String("addr-file", "", "write the bound listen address to this file (useful with -listen :0)")

		cacheBytes = flag.Int64("cache-bytes", 64<<20, "shared predicate-result cache budget per view, in bytes (0 disables); cached results are bit-identical to uncached ones")

		shards        = flag.Int("shards", 0, "split each view into this many supervised shards (0 disables); results are bit-identical at any shard count, and a failing shard degrades to named partial results instead of failing queries")
		shardDeadline = flag.Duration("shard-deadline", 0, "per-shard attempt deadline; a shard past it is retried, then dropped from the op's answer (0 disables)")
		hedgeAfter    = flag.Duration("hedge-after", 0, "launch a hedged duplicate shard attempt after this long without an answer (0 disables)")
		shardAddrs    stringList

		sloLatency    = flag.Duration("slo-latency", 500*time.Millisecond, "latency SLO threshold: a request slower than this is bad")
		sloLatencyObj = flag.Float64("slo-latency-objective", 0.99, "target fraction of requests under -slo-latency")
		sloErrorObj   = flag.Float64("slo-error-objective", 0.999, "target fraction of non-5xx requests")
		sloBurn       = flag.Float64("slo-burn-threshold", 2, "burn rate both windows must exceed to report an SLO as burning")
		sloOff        = flag.Bool("no-slo", false, "disable SLO monitoring (/v1/slo reports empty healthy status)")

		conflictPolicy = flag.String("conflict-policy", "last-wins", "default resolution of contradictory labels: last-wins, majority or strict (sessions may override)")
		budgetRows     = flag.Int("budget-labeled-rows", 0, "default cap on labeled rows per session (0 unlimited)")
		budgetIterTime = flag.Duration("budget-iteration-time", 0, "default soft cap on one steering iteration's wall time (0 unlimited)")
		budgetSamples  = flag.Int("budget-samples-per-iteration", 0, "default hard cap on labels per iteration (0 unlimited)")
		budgetNodes    = flag.Int("budget-tree-nodes", 0, "default cap on decision-tree nodes (0 unlimited)")
		budgetMem      = flag.Int64("budget-mem-bytes", 0, "default per-iteration scratch-memory bound; clustering discovery degrades to grid beyond it (0 unlimited)")

		csvs = csvFlags{}
	)
	flag.Var(csvs, "csv", "register a CSV view as name=path (repeatable; numeric columns, header row)")
	flag.Var(&shardAddrs, "shard-addr", "aideshard worker address (repeatable; host:port TCP or a unix-socket path); with -shards, the worker's announced shards are served remotely and the rest stay in-process")
	flag.Parse()

	logger, err := obs.NewLogger(*logFormat, os.Stderr, slog.LevelInfo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aideserver: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// Views are acquired through the shared registry: identical data
	// registered twice (here or by another server in-process) shares one
	// set of covering indexes, and -cache-bytes attaches a predicate
	// result cache shared by every session over the view.
	srv := service.NewServer(nil)
	srv.CacheBytes = *cacheBytes
	srv.Shards = *shards
	srv.ShardDeadline = *shardDeadline
	srv.HedgeAfter = *hedgeAfter
	srv.ShardAddrs = shardAddrs
	defer srv.Close()
	var views []viewSpec
	if *sdssRows > 0 {
		views = append(views, viewSpec{"sdss", dataset.GenerateSDSS(*sdssRows, *seed), splitAttrs(*attrs)})
	}
	if *auctionRows > 0 {
		views = append(views, viewSpec{"auction", dataset.GenerateAuction(*auctionRows, *seed), []string{"current_price", "num_bids"}})
	}
	for name, path := range csvs {
		f, err := os.Open(path)
		if err != nil {
			fatal("opening csv", "path", path, "err", err)
		}
		tab, err := dataset.ReadCSV(f, name, nil)
		f.Close()
		if err != nil {
			fatal("reading csv", "path", path, "err", err)
		}
		views = append(views, viewSpec{name, tab, tab.Schema().Names()})
	}
	if len(views) == 0 {
		fatal("no views configured (use -sdss, -auction or -csv)")
	}
	if err := setup(srv, views, logger); err != nil {
		fatal("building view", "err", err)
	}

	srv.SessionTTL = *sessionTTL
	srv.SnapshotEvery = *snapshotEvery
	srv.MaxInflight = *maxInflight
	srv.MaxBodyBytes = *maxBodyBytes
	policy, err := explore.ParseConflictPolicy(*conflictPolicy)
	if err != nil {
		fatal("bad -conflict-policy", "err", err)
	}
	srv.DefaultConflictPolicy = policy
	srv.DefaultBudget = explore.Budget{
		MaxLabeledRows:         *budgetRows,
		MaxIterationTime:       *budgetIterTime,
		MaxSamplesPerIteration: *budgetSamples,
		MaxTreeNodes:           *budgetNodes,
		MaxMemBytes:            *budgetMem,
	}

	if !*sloOff {
		cfg := obs.DefaultSLOConfig()
		cfg.LatencyThreshold = *sloLatency
		cfg.LatencyObjective = *sloLatencyObj
		cfg.ErrorObjective = *sloErrorObj
		cfg.BurnAlertThreshold = *sloBurn
		mon, err := obs.NewSLOMonitor(cfg)
		if err != nil {
			fatal("bad SLO configuration", "err", err)
		}
		srv.SLO = mon
	}

	if *dataDir != "" {
		policy, err := durable.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			fatal("bad -fsync", "err", err)
		}
		m, err := durable.NewManager(*dataDir, durable.Options{Fsync: policy, SyncEvery: *fsyncEvery})
		if err != nil {
			fatal("opening data dir", "dir", *dataDir, "err", err)
		}
		defer m.Close()
		srv.Durable = m
		n, err := srv.RecoverSessions(logger)
		if err != nil {
			fatal("recovering sessions", "dir", *dataDir, "err", err)
		}
		logger.Info("durability enabled", "dir", *dataDir, "fsync", *fsyncMode,
			"snapshot_every", *snapshotEvery, "sessions_recovered", n)
	}

	mux := http.NewServeMux()
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	mux.Handle("/", srv)

	// Middleware, outermost first: the request log assigns the request
	// id, recovery catches handler panics (and logs them under that id),
	// and the deadline bounds each handler's work.
	handler := service.WithRequestLog(logger,
		service.WithRecovery(logger,
			service.WithDeadline(*requestTimeout, mux)))
	httpSrv := &http.Server{
		Handler:           handler,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		ReadHeaderTimeout: *readHeaderTimeout,
		ConnState:         service.ConnState,
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal("listen", "addr", *listen, "err", err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal("writing addr file", "path", *addrFile, "err", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	srv.StartJanitor(ctx, time.Minute)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Info("serving", "views", srv.Views(), "listen", ln.Addr().String(),
		"session_ttl", sessionTTL.String(), "pprof", *pprofOn)

	select {
	case err := <-errc:
		fatal("listen", "err", err)
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fatal("shutdown", "err", err)
		}
		logger.Info("bye")
	}
}

// viewSpec is one view to register: a table and its exploration
// attributes.
type viewSpec struct {
	name  string
	tab   *dataset.Table
	attrs []string
}

// setup registers every view with srv and logs which path each took:
// local_index is false when every shard is remote, and heap_live_mb is
// the live heap as of the latest GC. Its final forced GC returns the
// build's scratch (the census and sort buffers) to the OS and restarts
// the GC pacer from what the server keeps, not from a collection in the
// middle of the build; obs.PaceStaticHeap then sizes the GC goal for
// that static heap, and the last log line reports both, with each view's
// covering-index build time and size (<view>.index_build_s,
// <view>.index_mb).
func setup(srv *service.Server, views []viewSpec, logger *slog.Logger) error {
	for _, vs := range views {
		if err := srv.RegisterTable(vs.name, vs.tab, vs.attrs); err != nil {
			return fmt.Errorf("view %s: %w", vs.name, err)
		}
		v := srv.View(vs.name)
		remote := 0
		for _, h := range v.ShardHealth() {
			if h.Remote {
				remote++
			}
		}
		logger.Info("view registered", "view", vs.name, "rows", v.NumRows(),
			"local_index", v.LocalIndex(), "remote_shards", remote, "heap_live_mb", obs.HeapLiveMB())
	}
	debug.FreeOSMemory()
	obs.PaceStaticHeap()
	fields := []any{"views", len(views)}
	for _, vs := range views {
		build, bytes := srv.View(vs.name).CoveringIndex()
		fields = append(fields, slog.Group(vs.name, "index_build_s", build.Round(time.Millisecond).Seconds(), "index_mb", bytes>>20))
	}
	fields = append(fields, "heap_live_mb", obs.HeapLiveMB(), "gc_percent", obs.GCPercent(), "heap_goal_mb", obs.HeapGoalMB())
	logger.Info("views ready", fields...)
	return nil
}

// stringList collects a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func splitAttrs(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
