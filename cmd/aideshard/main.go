// Command aideshard runs a shard worker: from the same dataset,
// exploration attributes and shard count as its aideserver coordinator —
// so the same view fingerprint — it builds only the shards it serves,
// and serves them over the shardrpc framed protocol, on TCP or a unix
// socket. The coordinator (aideserver -shard-addr, or
// service.Server.ShardAddrs) dials it, verifies fingerprint and shard
// count in the hello exchange, and routes the announced shards here;
// shards no worker claims stay in the coordinator's process.
//
//	aideshard -listen :9090      -sdss 100000 -shards 4 -serve 0,1
//	aideshard -listen /tmp/s.sock -sdss 100000 -shards 4 -serve 2,3
//
// Because shard construction is deterministic, the worker's shards are
// bit-identical to the coordinator's: remote answers match local ones
// exactly, and a killed worker can be restarted with the same flags and
// resume serving the same shards.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/obs"
	"github.com/explore-by-example/aide/internal/shardrpc"
)

func main() {
	var (
		listen      = flag.String("listen", ":9090", "listen address: host:port for TCP, a filesystem path for a unix socket")
		addrFile    = flag.String("addr-file", "", "write the bound listen address to this file (useful with -listen :0)")
		sdssRows    = flag.Int("sdss", 0, "rows of the built-in SDSS dataset (0 to disable)")
		auctionRows = flag.Int("auction", 0, "rows of the built-in AuctionMark dataset (0 to disable)")
		csvPath     = flag.String("csv", "", "serve shards of a CSV dataset (numeric columns, header row)")
		csvName     = flag.String("csv-name", "csv", "table name for -csv (part of the view identity)")
		seed        = flag.Int64("seed", 1, "dataset generation seed; must match the coordinator's")
		attrs       = flag.String("attrs", "rowc,colc", "exploration attributes; must match the coordinator's")
		shards      = flag.Int("shards", 0, "total shard count of the view; must match the coordinator's -shards")
		serve       = flag.String("serve", "", "comma-separated shard indexes to serve (empty: all of them)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
	)
	flag.Parse()

	logger, err := obs.NewLogger(*logFormat, os.Stderr, slog.LevelInfo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aideshard: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *shards <= 0 {
		fatal("-shards must be positive (and match the coordinator)")
	}
	start := time.Now()
	// The SDSS rows are streamed: the build replays the generator twice
	// instead of holding the table. The other datasets are read whole.
	var src dataset.Source
	var exploreAttrs []string
	switch {
	case *sdssRows > 0:
		src = dataset.SDSSSource(*sdssRows, *seed)
		exploreAttrs = splitList(*attrs)
	case *auctionRows > 0:
		src = dataset.GenerateAuction(*auctionRows, *seed)
		exploreAttrs = []string{"current_price", "num_bids"}
	case *csvPath != "":
		f, err := os.Open(*csvPath)
		if err != nil {
			fatal("opening csv", "path", *csvPath, "err", err)
		}
		tab, err := dataset.ReadCSV(f, *csvName, nil)
		f.Close()
		if err != nil {
			fatal("reading csv", "path", *csvPath, "err", err)
		}
		src, exploreAttrs = tab, tab.Schema().Names()
	default:
		fatal("no dataset configured (use -sdss, -auction or -csv)")
	}

	indexes, err := parseServe(*serve, *shards)
	if err != nil {
		fatal("bad -serve", "err", err)
	}
	subset, fp, err := setup(src, exploreAttrs, *shards, indexes)
	if err != nil {
		fatal("building view", "err", err)
	}
	build := time.Since(start)

	network := shardrpc.Network(*listen)
	if network == "unix" {
		// A SIGKILL'd predecessor leaves its socket file behind; remove
		// it so restarts rebind.
		os.Remove(*listen)
	}
	ln, err := net.Listen(network, *listen)
	if err != nil {
		fatal("listen", "addr", *listen, "err", err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal("writing addr file", "path", *addrFile, "err", err)
		}
	}

	srv := shardrpc.NewServer(fp, *shards, subset)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		logger.Info("shutting down")
		srv.Close()
	}()

	served := 0
	for _, b := range subset {
		served += b.NumRows()
	}
	// build_s runs from flag parsing to the built shards: dataset read or
	// generation included. peak_rss_mb is the process's high-water mark
	// so far, which the build sets.
	fields := []any{"listen", ln.Addr().String(), "network", network,
		"fingerprint", fp, "total_shards", *shards,
		"serving", indexes, "rows", src.NumRows(), "served_rows", served,
		"build_s", float64(build.Milliseconds()) / 1000,
		"heap_live_mb", obs.HeapLiveMB(), "gc_percent", obs.GCPercent(), "heap_goal_mb", obs.HeapGoalMB()}
	if kb, ok := obs.ProcStatusKB("/proc/self/status", "VmHWM"); ok {
		fields = append(fields, "peak_rss_mb", kb>>10)
	}
	logger.Info("serving shards", fields...)
	if err := srv.Serve(ln); err != nil {
		fatal("serve", "err", err)
	}
	// The serving peak: the high-water mark now covers the build and
	// every request served since; heap_live_mb is the live heap the last
	// collection found, and gc_cycles counts the build's cycles too.
	fields = []any{"heap_live_mb", obs.HeapLiveMB(), "heap_goal_mb", obs.HeapGoalMB(), "gc_cycles", obs.GCCycles()}
	if kb, ok := obs.ProcStatusKB("/proc/self/status", "VmHWM"); ok {
		fields = append(fields, "peak_rss_mb", kb>>10)
	}
	logger.Info("bye", fields...)
}

// servingHeapFloor is the GC allowance floor a worker serves under:
// goal = live + max(4 MiB, 10 % of live). Its serve loop allocates
// nothing per batch (BenchmarkWorkerBatch in internal/shardrpc), so a
// small floor costs few collections; the coordinator's 64 MiB one let
// each remote-3m worker's heap reach twice its 54 MB live before its
// first serving collection.
const servingHeapFloor = 4 << 20

// setup builds only the served shards of the view over src and returns
// their backends and the view fingerprint, leaving the build's scratch
// (and the table, for a source that is one) unreachable. Its final
// forced GC returns them to the OS and restarts the GC pacer from what
// the worker serves, not from the build's peak, and obs.PaceStaticHeap
// then sizes the GC goal for that static heap over servingHeapFloor.
func setup(src dataset.Source, attrs []string, shards int, serve []int) (map[int]engine.ShardBackend, string, error) {
	subset, fp, err := engine.NewServedShards(src, attrs, shards, serve)
	if err != nil {
		return nil, "", err
	}
	debug.FreeOSMemory()
	obs.PaceStaticHeap(servingHeapFloor)
	return subset, fp, nil
}

// parseServe parses the -serve index list, defaulting to every shard.
func parseServe(s string, total int) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	seen := make(map[int]bool)
	var out []int
	for _, part := range strings.Split(s, ",") {
		i, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("shard index %q: %w", part, err)
		}
		if i < 0 || i >= total {
			return nil, fmt.Errorf("shard index %d out of range [0,%d)", i, total)
		}
		if seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, i)
	}
	sort.Ints(out)
	return out, nil
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
