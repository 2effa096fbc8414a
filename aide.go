// Package aide is a Go implementation of AIDE — the Automatic Interactive
// Data Exploration framework of Dimitriadou, Papaemmanouil and Diao,
// "Explore-by-Example: An Automatic Query Steering Framework for
// Interactive Data Exploration" (SIGMOD 2014).
//
// AIDE steers a user through a d-dimensional data space: each iteration
// it strategically extracts a handful of sample tuples, asks the user to
// mark each relevant or irrelevant, trains a decision-tree model of the
// user's interest, and finally "predicts" the query — a disjunction of
// range predicates — that retrieves the user's relevant objects. Three
// sample-selection phases drive convergence: relevant object discovery
// over a hierarchical grid (or k-means cluster hierarchy for skewed
// spaces), misclassified-sample exploitation, and boundary exploitation
// of the predicted relevant areas.
//
// # Quick start
//
//	tab := aide.GenerateSDSS(100_000, 1)                   // or build your own Table
//	view, _ := aide.NewView(tab, []string{"rowc", "colc"}) // pick exploration attributes
//	oracle := aide.OracleFunc(func(v *aide.View, row int) bool {
//		return myUserFindsInteresting(v.FullRow(row))
//	})
//	session, _ := aide.NewSession(view, oracle, aide.DefaultOptions())
//	for i := 0; i < 30; i++ {
//		if _, err := session.RunIteration(); err != nil {
//			break
//		}
//	}
//	fmt.Println(session.FinalQuery().SQL())
//
// The package re-exports the supported surface of the internal
// subsystems: the dataset layer (column-major tables and synthetic
// generators), the query engine (indexed views, region sampling, sampled
// datasets), the exploration core (sessions, options, baselines) and the
// evaluation harness (targets, simulated users, F-measure).
package aide

import (
	"io"
	"net/http"

	"github.com/explore-by-example/aide/internal/cart"
	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/eval"
	"github.com/explore-by-example/aide/internal/explore"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/obs"
	"github.com/explore-by-example/aide/internal/service"
)

// Geometry primitives.
type (
	// Point is a location in the exploration space.
	Point = geom.Point
	// Interval is a closed numeric range.
	Interval = geom.Interval
	// Rect is an axis-aligned hyper-rectangle, one Interval per dimension.
	Rect = geom.Rect
	// Normalizer maps raw attribute values to the canonical [0,100] space.
	Normalizer = geom.Normalizer
)

// Dataset layer.
type (
	// Table is an immutable, column-major in-memory table.
	Table = dataset.Table
	// Schema describes a table's columns and their value domains.
	Schema = dataset.Schema
	// Column is one schema entry.
	Column = dataset.Column
	// Builder accumulates rows into a Table.
	Builder = dataset.Builder
	// ClusterSpec parameterizes GenerateClusters.
	ClusterSpec = dataset.ClusterSpec
)

// Query engine.
type (
	// View is an indexed projection of a Table onto the exploration
	// attributes; all exploration runs against a View.
	View = engine.View
	// Query is a disjunction of conjunctive range predicates — AIDE's
	// final output.
	Query = engine.Query
	// ViewRegistry shares immutable views (and their indexes) across
	// sessions and servers, keyed by data content.
	ViewRegistry = engine.Registry
	// Cache is a bounded predicate-result cache attachable to a View;
	// cached results are bit-identical to uncached ones.
	Cache = engine.Cache
	// CacheStats reports a Cache's hit/miss/eviction counters.
	CacheStats = engine.CacheStats
)

// Exploration core.
type (
	// Session is an AIDE steering session.
	Session = explore.Session
	// SessionStats aggregates a session's effort and timing.
	SessionStats = explore.SessionStats
	// Options tunes every knob of a session.
	Options = explore.Options
	// Oracle supplies relevance labels (the human in the loop).
	Oracle = explore.Oracle
	// OracleFunc adapts a plain function to Oracle.
	OracleFunc = explore.OracleFunc
	// Explorer is the common interface of Session and the baselines.
	Explorer = explore.Explorer
	// IterationResult summarizes one steering iteration.
	IterationResult = explore.IterationResult
	// AreaInfo is per-predicted-area evidence (support, violations,
	// selectivity) from Session.Diagnostics.
	AreaInfo = explore.AreaInfo
	// Phase identifies an exploration phase.
	Phase = explore.Phase
	// DiscoveryStrategy selects grid, clustering, or hybrid discovery.
	DiscoveryStrategy = explore.DiscoveryStrategy
	// MisclassStrategy selects clustered or per-object misclassified
	// exploitation.
	MisclassStrategy = explore.MisclassStrategy
	// Random is the uniform-sampling baseline.
	Random = explore.Random
	// RandomGrid is the grid-spread random baseline.
	RandomGrid = explore.RandomGrid
	// Budget caps a session's resource use; exceeding a cap triggers a
	// reported degradation instead of a failure.
	Budget = explore.Budget
	// ConflictPolicy selects how contradictory labels for the same tuple
	// are resolved.
	ConflictPolicy = explore.ConflictPolicy
	// ConflictStats summarizes the contradictions a session has seen.
	ConflictStats = explore.ConflictStats
	// ConflictError reports a contradiction under the strict policy.
	ConflictError = explore.ConflictError
	// NoisyOracle wraps an Oracle and flips answers at a seeded rate, for
	// testing noise tolerance.
	NoisyOracle = explore.NoisyOracle
	// DecisionTree is the CART classifier modeling user interest.
	DecisionTree = cart.Tree
	// TreeParams tunes decision-tree induction.
	TreeParams = cart.Params
)

// Evaluation harness.
type (
	// Target is a ground-truth user interest (a set of relevant areas).
	Target = eval.Target
	// TargetSpec parameterizes target-query generation.
	TargetSpec = eval.TargetSpec
	// SizeClass is the paper's small/medium/large area sizing.
	SizeClass = eval.SizeClass
	// Metrics is precision/recall/F-measure over the full data space.
	Metrics = eval.Metrics
	// Evaluator computes Metrics against one fixed target.
	Evaluator = eval.Evaluator
	// SimulatedUser labels samples from a ground-truth target.
	SimulatedUser = eval.SimulatedUser
	// Trace is a per-iteration accuracy record.
	Trace = eval.Trace
	// ManualResult summarizes a scripted manual-exploration session.
	ManualResult = eval.ManualResult
	// ManualParams tunes the scripted manual explorer.
	ManualParams = eval.ManualParams
)

// HTTP exploration service (the middleware role of the paper's system
// architecture). Run the server with cmd/aideserver or embed it in any
// http mux; drive it with ServiceClient.
type (
	// ServiceServer serves explore-by-example sessions over HTTP+JSON.
	ServiceServer = service.Server
	// ServiceClient is the matching Go client.
	ServiceClient = service.Client
	// CreateSessionRequest configures a remote session.
	CreateSessionRequest = service.CreateSessionRequest
	// ServiceSample is one tuple awaiting a label from a remote user.
	ServiceSample = service.Sample
)

// ErrSessionDone is returned by ServiceClient.NextSample when a remote
// session has finished.
var ErrSessionDone = service.ErrSessionDone

// Observability: the process-wide metrics registry and per-session
// iteration tracing (attach a TraceRecorder with Session.SetRecorder).
type (
	// MetricsRegistry holds named counters, gauges and latency histograms.
	MetricsRegistry = obs.Registry
	// TraceRecorder keeps a bounded ring of per-iteration trace trees.
	TraceRecorder = obs.Recorder
	// SpanData is one finished span in JSON-ready form.
	SpanData = obs.SpanData
)

// DefaultMetrics returns the process-wide registry every instrumented
// layer (engine, explore, service) reports into.
func DefaultMetrics() *MetricsRegistry { return obs.Default }

// NewTraceRecorder creates a recorder keeping the last capacity
// iteration traces (<= 0: 64).
func NewTraceRecorder(capacity int) *TraceRecorder { return obs.NewRecorder(capacity) }

// NewServiceServer creates an HTTP exploration server over named views.
func NewServiceServer(views map[string]*View) *ServiceServer {
	return service.NewServer(views)
}

// NewServiceClient creates a client for a server at baseURL; httpClient
// may be nil. One client is one pooled transport that keeps a
// sequential caller on a single keep-alive connection: create it once
// and share it, across sessions and goroutines.
func NewServiceClient(baseURL string, httpClient *http.Client) *ServiceClient {
	return service.NewClient(baseURL, httpClient)
}

// Exploration phases.
const (
	PhaseDiscovery = explore.PhaseDiscovery
	PhaseMisclass  = explore.PhaseMisclass
	PhaseBoundary  = explore.PhaseBoundary
)

// Discovery strategies.
const (
	DiscoveryGrid       = explore.DiscoveryGrid
	DiscoveryClustering = explore.DiscoveryClustering
	DiscoveryHybrid     = explore.DiscoveryHybrid
)

// Misclassified-exploitation strategies.
const (
	MisclassClustered = explore.MisclassClustered
	MisclassPerObject = explore.MisclassPerObject
)

// Label-conflict resolution policies.
const (
	ConflictLastWins = explore.ConflictLastWins
	ConflictMajority = explore.ConflictMajority
	ConflictStrict   = explore.ConflictStrict
)

// ParseConflictPolicy parses "last-wins", "majority" or "strict" ("" =
// last-wins).
func ParseConflictPolicy(s string) (ConflictPolicy, error) {
	return explore.ParseConflictPolicy(s)
}

// NewNoisyOracle wraps inner so each answer flips with probability rate
// (clamped to [0,1]), deterministically for a given seed.
func NewNoisyOracle(inner Oracle, rate float64, seed int64) *NoisyOracle {
	return explore.NewNoisyOracle(inner, rate, seed)
}

// Relevant-area size classes.
const (
	Small  = eval.Small
	Medium = eval.Medium
	Large  = eval.Large
)

// NewTable constructs a table from column-major data; see dataset.NewTable.
func NewTable(name string, schema Schema, cols [][]float64) (*Table, error) {
	return dataset.NewTable(name, schema, cols)
}

// NewBuilder creates a row-at-a-time table builder.
func NewBuilder(name string, schema Schema) *Builder {
	return dataset.NewBuilder(name, schema)
}

// GenerateSDSS builds the synthetic Sloan Digital Sky Survey PhotoObjAll
// table used throughout the paper's evaluation (Section 6.1): uniform
// rowc/colc, skewed ra/dec/field/fieldID.
func GenerateSDSS(n int, seed int64) *Table { return dataset.GenerateSDSS(n, seed) }

// SDSSSchema returns the synthetic PhotoObjAll schema.
func SDSSSchema() Schema { return dataset.SDSSSchema() }

// GenerateAuction builds the synthetic AuctionMark ITEM table of the user
// study (Section 6.5).
func GenerateAuction(n int, seed int64) *Table { return dataset.GenerateAuction(n, seed) }

// AuctionSchema returns the synthetic ITEM schema.
func AuctionSchema() Schema { return dataset.AuctionSchema() }

// GenerateUniform builds a d-attribute uniform table over [0,100]^d.
func GenerateUniform(n, d int, seed int64) *Table { return dataset.GenerateUniform(n, d, seed) }

// GenerateClusters builds a Gaussian-mixture table (skewed spaces).
func GenerateClusters(n, d int, specs []ClusterSpec, background float64, seed int64) *Table {
	return dataset.GenerateClusters(n, d, specs, background, seed)
}

// NewView builds an indexed exploration view over the named attributes.
// Index construction uses the automatic worker count (the AIDE_WORKERS
// environment variable, else GOMAXPROCS).
func NewView(tab *Table, attrs []string) (*View, error) { return engine.NewView(tab, attrs) }

// NewViewWorkers is NewView with an explicit worker count for index
// construction: 0 means automatic, 1 forces the sequential path. The
// built view and every query result are identical at any worker count;
// see the "Concurrency & performance" section of README.md.
func NewViewWorkers(tab *Table, attrs []string, workers int) (*View, error) {
	return engine.NewViewWorkers(tab, attrs, workers)
}

// SharedViews is the process-wide view registry: Acquire through it (or
// through ServiceServer.RegisterTable) and sessions over the same data
// share one set of covering indexes.
var SharedViews = engine.SharedViews

// NewViewRegistry creates an empty, independent view registry.
func NewViewRegistry() *ViewRegistry { return engine.NewRegistry() }

// NewCache creates a predicate-result cache of roughly maxBytes; attach
// it with View.WithCache. Cached Count/RowsIn results are bit-identical
// to uncached ones (sampling is never cached).
func NewCache(maxBytes int64) *Cache { return engine.NewCache(maxBytes) }

// DefaultOptions returns the configuration matching the paper's
// evaluation setup.
func DefaultOptions() Options { return explore.DefaultOptions() }

// NewSession starts an AIDE exploration session.
func NewSession(view *View, oracle Oracle, opts Options) (*Session, error) {
	return explore.NewSession(view, oracle, opts)
}

// ResumeSession reconstructs a session previously written with
// Session.Save. The view must match the one the session was saved from;
// already-recorded labels are not re-requested from the oracle.
func ResumeSession(r io.Reader, view *View, oracle Oracle) (*Session, error) {
	return explore.Resume(r, view, oracle)
}

// NewRandom builds the Random baseline explorer of Section 6.2.
func NewRandom(view *View, oracle Oracle, perIter int, seed int64) (*Random, error) {
	return explore.NewRandom(view, oracle, perIter, seed)
}

// NewRandomGrid builds the Random-Grid baseline explorer of Section 6.2.
func NewRandomGrid(view *View, oracle Oracle, perIter, beta0 int, seed int64) (*RandomGrid, error) {
	return explore.NewRandomGrid(view, oracle, perIter, beta0, seed)
}

// RunUntil drives an explorer until stop returns true or maxIter
// iterations elapse.
func RunUntil(e Explorer, stop func(*IterationResult) bool, maxIter int) ([]*IterationResult, error) {
	return explore.RunUntil(e, stop, maxIter)
}

// GenerateTarget places ground-truth relevant areas for evaluation
// workloads.
func GenerateTarget(v *View, spec TargetSpec, seed int64) (Target, error) {
	return eval.GenerateTarget(v, spec, seed)
}

// NewEvaluator precomputes the target mask for repeated F-measure
// evaluation.
func NewEvaluator(v *View, target []Rect) (*Evaluator, error) {
	return eval.NewEvaluator(v, target)
}

// NewSimulatedUser builds an oracle that labels against a ground-truth
// target.
func NewSimulatedUser(target Target) *SimulatedUser { return eval.NewSimulatedUser(target) }

// RunTrace drives an explorer to a target accuracy, recording the
// per-iteration accuracy curve.
func RunTrace(e Explorer, evalView *View, target Target, stopF float64, maxIter int) (Trace, error) {
	return eval.RunTrace(e, evalView, target, stopF, maxIter)
}

// SimulateManual runs the scripted manual-exploration baseline of the
// user study.
func SimulateManual(v *View, target Target, params ManualParams, seed int64) ManualResult {
	return eval.SimulateManual(v, target, params, seed)
}

// ParseQuery parses the SELECT dialect Query.SQL emits back into a
// Query, so predicted queries can be stored as text and re-executed.
// attrs fixes dimension order; domains fills attributes a disjunct omits
// (may be nil when every disjunct constrains every attribute).
func ParseQuery(sql string, attrs []string, domains Rect) (Query, error) {
	return engine.ParseQuery(sql, attrs, domains)
}

// R builds a Rect from (lo, hi) pairs: R(0,10, 20,30) is [0,10]x[20,30].
func R(pairs ...float64) Rect { return geom.R(pairs...) }

// FullDomain returns the d-dimensional rectangle covering the whole
// normalized [0,100]^d exploration space.
func FullDomain(d int) Rect { return geom.NewRect(d) }
