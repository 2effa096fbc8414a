package explore

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"github.com/explore-by-example/aide/internal/cart"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/obs"
)

// Session is an AIDE exploration session: the full steering loop of
// Figure 1 over one engine.View. Sessions are single-goroutine; create
// one per exploration task.
type Session struct {
	view   *engine.View
	oracle Oracle
	opts   Options
	rng    *rand.Rand
	bounds geom.Rect // exploration bounds: RangeHint or the full domain

	// Labeled training set. rows, points and labels are parallel; idxOf
	// maps a row id to its index in them so conflict resolution can flip a
	// label in place.
	labelOf map[int]bool
	idxOf   map[int]int
	rows    []int
	points  []geom.Point
	labels  []bool
	nPos    int

	// ledger records every labeling event for conflict detection;
	// conflictErr is the sticky failure of the strict-error policy.
	ledger      *labelLedger
	conflictErr error

	// permDegr holds degradations decided once for the whole session
	// (e.g. the discovery grid fallback); they are re-reported on every
	// iteration result. iterStart anchors the MaxIterationTime budget.
	permDegr  []string
	iterStart time.Time

	// shardTracker collects partial-result events from the session's
	// sharded view (nil for unsharded views). Drained once per iteration
	// into the result's Degradations, so a quarantined shard is a named
	// degradation, never a silent wrong answer.
	shardTracker *engine.ShardTracker

	set   cart.Set // the labelled points, presorted across retrains
	tree  *cart.Tree
	areas []geom.Rect // current relevant areas (normalized, unmerged)

	prevAreas []geom.Rect // relevant areas after the previous iteration
	lastSlabs []geom.Rect // boundary slabs sampled in the previous iteration

	disc          discoverer
	discoveryHits int // relevant objects found by discovery: the paper's k indicator

	// selCounts memoizes Diagnostics' per-area row counts (the view is
	// immutable, so a rect's count never changes within a session).
	selCounts map[string]int

	rec       *obs.Recorder       // per-iteration trace sink (nil: tracing off)
	phaseSpan *obs.Span           // active phase span while a phase executes
	flight    *obs.FlightRecorder // per-iteration wide events (nil: off)
	annotate  func(*obs.Span)     // stamps request ids on the root span

	// ctx is the active iteration's cancellation context (nil between
	// iterations and for plain RunIteration calls). Discovery steps and
	// phase loops poll it so a deadline or client disconnect abandons the
	// iteration within one engine chunk boundary.
	ctx context.Context

	iter  int
	stats SessionStats
}

// SessionStats aggregates effort and timing over a session.
type SessionStats struct {
	// Iterations run so far.
	Iterations int
	// TotalLabeled is the user's total labeling effort.
	TotalLabeled int
	// TotalRelevant counts relevant labels among them.
	TotalRelevant int
	// PhaseSamples breaks TotalLabeled down by phase.
	PhaseSamples [3]int
	// PhaseQueries counts the sample-extraction queries each phase issued
	// (one per sampling area: grid cell / cluster, misclassified object or
	// cluster of them, boundary slab). The clustered misclassified
	// exploitation exists precisely to shrink this number (Section 4.2).
	PhaseQueries [3]int
	// ExecTime is the cumulative system execution time (user wait time).
	ExecTime time.Duration
	// TrainTime is the classifier-training share of ExecTime.
	TrainTime time.Duration
	// Conflicts summarizes label contradictions seen so far.
	Conflicts ConflictStats
	// Degradations lists the budget degradations of the most recent
	// iteration (including session-permanent ones).
	Degradations []string
}

// sampleRequest is one planned sample-extraction query.
type sampleRequest struct {
	rect  geom.Rect
	n     int
	phase Phase
}

// NewSession creates a session over the view. The oracle provides labels;
// opts tunes every knob (start from DefaultOptions).
func NewSession(view *engine.View, oracle Oracle, opts Options) (*Session, error) {
	if view == nil {
		return nil, fmt.Errorf("explore: nil view")
	}
	if oracle == nil {
		return nil, fmt.Errorf("explore: nil oracle")
	}
	if err := opts.validate(view.Dims()); err != nil {
		return nil, err
	}
	start := time.Now()
	if opts.CacheBytes > 0 && view.Cache() == nil {
		// Session-private predicate result cache; a shared cache already on
		// the view wins, keeping cross-session reuse.
		view = view.WithCache(engine.NewCache(opts.CacheBytes))
	}
	var tracker *engine.ShardTracker
	if view.ShardCount() > 0 {
		// Sharded view: attach a session-private tracker so partial
		// results degrade this session's iterations by name.
		view, tracker = view.WithShardTracker()
	}
	s := &Session{
		view:    view,
		oracle:  oracle,
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		labelOf: make(map[int]bool),
		idxOf:   make(map[int]int),
		ledger:  newLabelLedger(),
	}
	s.shardTracker = tracker
	if opts.RangeHint != nil {
		s.bounds = opts.RangeHint.Clone()
	} else {
		s.bounds = geom.NewRect(view.Dims())
	}
	var err error
	s.disc, err = newDiscoverer(s)
	if err != nil {
		return nil, err
	}
	obsNewSessionSeconds.Observe(time.Since(start).Seconds())
	return s, nil
}

// View returns the session's view.
func (s *Session) View() *engine.View { return s.view }

// Options returns the session's (validated) options.
func (s *Session) Options() Options { return s.opts }

// Stats returns cumulative session statistics.
func (s *Session) Stats() SessionStats { return s.stats }

// LabeledCount implements Explorer.
func (s *Session) LabeledCount() int { return len(s.rows) }

// Tree returns the current classifier, or nil before one exists.
func (s *Session) Tree() *cart.Tree { return s.tree }

// RunIteration implements Explorer: it plans the iteration's sample set
// from the three phases (Equation 2: S_i = T_discovery + T_misclass +
// T_boundary), extracts and labels the samples, and retrains the
// classifier.
func (s *Session) RunIteration() (*IterationResult, error) {
	return s.RunIterationCtx(context.Background())
}

// cancelled reports whether the active iteration context is done.
func (s *Session) cancelled() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// iterCtx returns the active iteration context (Background outside an
// iteration or for plain RunIteration calls).
func (s *Session) iterCtx() context.Context {
	if s.ctx == nil {
		return context.Background()
	}
	return s.ctx
}

// abort closes the open trace spans and wraps the cancellation error.
func (s *Session) abort(root *obs.Span, ctx context.Context) (*IterationResult, error) {
	s.phaseSpan.End()
	s.phaseSpan = nil
	root.SetAttr("cancelled", true)
	root.End()
	return nil, fmt.Errorf("explore: iteration %d cancelled: %w", s.iter, ctx.Err())
}

// RunIterationCtx is RunIteration with cooperative cancellation: once
// ctx is cancelled the iteration abandons its work — engine scans and
// classifier training stop at the next chunk/node boundary, discovery
// stops at the next cell — and returns an error wrapping ctx.Err(). The
// session state stays consistent: labels already recorded this iteration
// are kept (they are real user effort and re-running the iteration will
// not re-ask them), but the iteration counter does not advance and no
// classifier is published, so the caller may retry RunIterationCtx with
// a fresh context or abandon the session. An uncancelled ctx behaves
// exactly like RunIteration.
func (s *Session) RunIterationCtx(ctx context.Context) (*IterationResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("explore: iteration %d cancelled: %w", s.iter, err)
	}
	if s.conflictErr != nil {
		// A strict-policy conflict is sticky: the training set is tainted
		// and the user must resolve the contradiction out of band.
		return nil, s.conflictErr
	}
	if ctx != context.Background() {
		// Bind the iteration context to the session and its view so
		// engine scans issued by the phase planners observe cancellation
		// at chunk boundaries.
		s.ctx = ctx
		baseView := s.view
		s.view = baseView.WithContext(ctx)
		defer func() {
			s.view = baseView
			s.ctx = nil
		}()
	}
	start := time.Now()
	s.iterStart = start
	res := &IterationResult{Iteration: s.iter}
	conflictsBefore := s.ledger.events
	// Session-permanent degradations (e.g. the discovery grid fallback)
	// apply to every iteration; re-report them so each result is
	// self-describing.
	for _, d := range s.permDegr {
		s.degrade(res, d)
	}

	root := s.rec.Start("iteration")
	root.SetAttr("iteration", s.iter)
	if s.annotate != nil {
		s.annotate(root)
	}
	// Flight-recorder baselines: cache counters and query counts are
	// cumulative, so the iteration's event reports deltas against these.
	var cacheBefore engine.CacheStats
	if s.flight != nil && s.view.Cache() != nil {
		cacheBefore = s.view.Cache().Stats()
	}
	queriesBefore := s.stats.PhaseQueries

	budget := s.opts.SamplesPerIteration
	if budget == 0 {
		budget = math.MaxInt32
	}
	if cap := s.opts.Budget.MaxSamplesPerIteration; cap > 0 && cap < budget {
		budget = cap
		s.degrade(res, DegradeIterSamplesCap)
	}

	// Phases 2 and 3 need a classifier; the first iteration is discovery
	// only (Section 3: "no other phases are applied in the first
	// iteration").
	if s.tree != nil {
		var reqs []sampleRequest
		if !s.opts.DisableMisclass {
			reqs = append(reqs, s.planMisclass(res)...)
		}
		var slabs []geom.Rect
		if !s.opts.DisableBoundary {
			var breqs []sampleRequest
			breqs, slabs = s.planBoundary(res)
			reqs = append(reqs, breqs...)
		}
		reqs = trimRequests(reqs, budget)
		if len(reqs) > 0 {
			// The whole exploitation sample set runs as ONE engine batch —
			// one scatter per shard per iteration instead of one per
			// request. Rows are drawn lazily per request below, so the rng
			// stream (and therefore every label and golden) is bit-identical
			// to the old sequential loop, including when a budget or
			// conflict stop abandons the tail mid-batch.
			queries := make([]engine.BatchQuery, len(reqs))
			for i, rq := range reqs {
				queries[i] = engine.BatchQuery{Kind: engine.BatchSample, Rect: rq.rect, N: rq.n}
			}
			bs := root.Child("engine.execute_batch")
			batchStart := time.Now()
			br := s.view.ExecuteBatch(queries)
			batchTime := time.Since(batchStart)
			bs.SetAttr("queries", len(queries))
			bs.End()
			if s.cancelled() {
				return s.abort(root, ctx)
			}
			// The batch wall time is shared effort; attribute it to phases
			// in proportion to their request counts so per-phase durations
			// keep summing to roughly the iteration's engine time.
			var perPhase [3]int
			for _, rq := range reqs {
				perPhase[rq.phase]++
			}
			for p, n := range perPhase {
				if n > 0 {
					res.PhaseDurations[p] += batchTime * time.Duration(n) / time.Duration(len(reqs))
				}
			}
			// Requests arrive grouped by phase (misclassified before
			// boundary); one child span covers each contiguous phase run.
			curPhase := Phase(-1)
			segStart := time.Now()
			for i, rq := range reqs {
				if s.cancelled() {
					return s.abort(root, ctx)
				}
				if s.stepHalted(res) {
					break // budget or conflict stop: keep what we have
				}
				if rq.phase != curPhase {
					if curPhase >= 0 {
						res.PhaseDurations[curPhase] += time.Since(segStart)
					}
					segStart = time.Now()
					s.phaseSpan.End()
					s.phaseSpan = root.Child(rq.phase.String())
					curPhase = rq.phase
				}
				s.stats.PhaseQueries[rq.phase]++
				qs := s.phaseSpan.Child("engine.sample_rect")
				rows := br.Sample(i, s.rng)
				qs.SetAttr("requested", rq.n)
				qs.SetAttr("returned", len(rows))
				qs.End()
				for _, row := range rows {
					s.labelRow(row, rq.phase, res)
				}
			}
			if curPhase >= 0 {
				res.PhaseDurations[curPhase] += time.Since(segStart)
			}
			s.phaseSpan.End()
			s.phaseSpan = nil
		}
		s.lastSlabs = slabs
	}

	// Remaining effort goes to discovery ("we used the remaining of 20
	// samples to sample unexplored yet grid cells", Section 6.2).
	if remaining := budget - res.NewSamples; remaining > 0 && !s.stepHalted(res) {
		discStart := time.Now()
		s.phaseSpan = root.Child(PhaseDiscovery.String())
		before := res.NewSamples
		s.disc.step(s, remaining, res)
		s.phaseSpan.SetAttr("samples", res.NewSamples-before)
		s.phaseSpan.End()
		s.phaseSpan = nil
		res.PhaseDurations[PhaseDiscovery] += time.Since(discStart)
		if s.cancelled() {
			return s.abort(root, ctx)
		}
	}

	if s.conflictErr != nil {
		// Strict-error policy: the contradiction aborts the iteration
		// before a classifier trained on tainted labels is published.
		root.SetAttr("conflict", true)
		root.End()
		return nil, s.conflictErr
	}

	// Retrain the classifier on the grown training set.
	trainStart := time.Now()
	ts := root.Child("train")
	s.prevAreas = s.areas
	if s.nPos > 0 && s.nPos < len(s.rows) {
		// Conflict-free sessions get a nil weight slice, which routes
		// training through the exact unweighted integer path — the session
		// stays bit-identical to one without the ledger. Conflicted rows
		// train with their agreement ratio as weight.
		tree, err := s.set.Train(s.iterCtx(), s.points, s.labels, s.ledger.weights(s.rows), s.opts.Tree)
		if err != nil {
			ts.End()
			root.End()
			return nil, fmt.Errorf("explore: training classifier: %w", err)
		}
		s.tree = tree
		s.areas = tree.RelevantAreas(s.bounds)
		if tree.Capped() {
			s.degrade(res, DegradeCartNodeCap)
		}
	} else {
		s.tree = nil
		s.areas = nil
	}
	ts.SetAttr("training_set", len(s.rows))
	ts.End()
	res.TrainDuration = time.Since(trainStart)
	res.Duration = time.Since(start)
	res.TotalLabeled = len(s.rows)
	res.RelevantAreas = len(s.areas)
	res.Conflicts = s.ledger.events - conflictsBefore
	if s.shardTracker != nil {
		// Surface shard-level partial results from this iteration's engine
		// scans as a named degradation ("shard_partial:n/N").
		if name, partial := s.shardTracker.Drain(); partial {
			s.degrade(res, name)
		}
	}

	s.iter++
	s.stats.Iterations++
	s.stats.TotalLabeled = len(s.rows)
	s.stats.ExecTime += res.Duration
	s.stats.TrainTime += res.TrainDuration
	s.stats.Conflicts = s.ledger.stats()
	s.stats.Degradations = res.Degradations

	obsIterations.Inc()
	obsIterationSeconds.Observe(res.Duration.Seconds())
	obsTrainSeconds.Observe(res.TrainDuration.Seconds())
	obsAreasPredicted.Set(float64(res.RelevantAreas))
	for p, d := range res.PhaseDurations {
		if d > 0 {
			obsPhaseSeconds[p].Observe(d.Seconds())
		}
	}
	obsTrainPhaseSeconds.Observe(res.TrainDuration.Seconds())
	root.SetAttr("new_samples", res.NewSamples)
	root.SetAttr("new_relevant", res.NewRelevant)
	root.SetAttr("total_labeled", res.TotalLabeled)
	root.SetAttr("areas", res.RelevantAreas)
	if res.Conflicts > 0 {
		root.SetAttr("conflicts", res.Conflicts)
	}
	if len(res.Degradations) > 0 {
		root.SetAttr("degradations", strings.Join(res.Degradations, ","))
	}
	root.End()
	s.recordFlight(res, budget, cacheBefore, queriesBefore)
	return res, nil
}

// labelRow shows one tuple to the oracle and records the labeling event
// in the conflict ledger. A row the session has already labeled is shown
// again: the oracle's fresh answer either confirms the current label (a
// no-op) or contradicts it, in which case the session's ConflictPolicy
// decides the row's effective label — the paper's silent keep-the-first
// behavior systematically trusted the oldest (least informed) answer.
// It returns the row's effective label and whether a new training sample
// was added.
func (s *Session) labelRow(row int, phase Phase, res *IterationResult) (relevant, isNew bool) {
	obsSamplesProposed.Inc()
	if s.conflictErr != nil {
		return s.labelOf[row], false
	}
	if cur, ok := s.labelOf[row]; ok {
		lab := s.oracle.Label(s.view, row)
		obsLabelsReceived.Inc()
		resolved, changed, err := s.ledger.record(row, lab, s.iter, cur, s.opts.ConflictPolicy)
		if err != nil {
			s.conflictErr = err
			return cur, false
		}
		if changed {
			i := s.idxOf[row]
			s.labelOf[row] = resolved
			s.labels[i] = resolved
			if resolved {
				s.nPos++
				s.stats.TotalRelevant++
			} else {
				s.nPos--
				s.stats.TotalRelevant--
			}
		}
		return s.labelOf[row], false
	}
	if max := s.opts.Budget.MaxLabeledRows; max > 0 && len(s.rows) >= max {
		// Labeling budget spent: refuse new rows. The session then idles
		// to a stop (RunUntil's no-progress detection) instead of failing.
		s.degrade(res, DegradeMaxLabeledRows)
		return false, false
	}
	lab := s.oracle.Label(s.view, row)
	obsLabelsReceived.Inc()
	if lab {
		obsLabelsRelevant.Inc()
	}
	s.ledger.record(row, lab, s.iter, lab, s.opts.ConflictPolicy)
	s.labelOf[row] = lab
	s.idxOf[row] = len(s.rows)
	s.rows = append(s.rows, row)
	s.points = append(s.points, s.view.NormPoint(row))
	s.labels = append(s.labels, lab)
	if lab {
		s.nPos++
		res.NewRelevant++
		s.stats.TotalRelevant++
	}
	res.NewSamples++
	res.PhaseSamples[phase]++
	s.stats.PhaseSamples[phase]++
	return lab, true
}

// LabeledPoints returns copies of the labeled samples' normalized points
// and their labels, in labeling order — the data a front-end plots.
func (s *Session) LabeledPoints() ([]geom.Point, []bool) {
	points := make([]geom.Point, len(s.points))
	for i, p := range s.points {
		points[i] = p.Clone()
	}
	labels := make([]bool, len(s.labels))
	copy(labels, s.labels)
	return points, labels
}

// RelevantAreas implements Explorer: the current prediction as merged
// normalized rectangles.
func (s *Session) RelevantAreas() []geom.Rect {
	if len(s.areas) == 0 {
		return nil
	}
	return cart.MergeAreas(s.areas)
}

// FinalQuery implements Explorer: it translates the classifier into the
// data-extraction query of Section 2.2, in raw attribute space.
func (s *Session) FinalQuery() engine.Query {
	norm := s.view.Normalizer()
	merged := s.RelevantAreas()
	areas := make([]geom.Rect, len(merged))
	for i, a := range merged {
		areas[i] = norm.ToRawRect(a)
	}
	domains := norm.ToRawRect(geom.NewRect(s.view.Dims()))
	return engine.Query{
		Table:   s.view.Table().Name(),
		Attrs:   s.view.Attrs(),
		Areas:   areas,
		Domains: domains,
	}
}

// trimRequests enforces the per-iteration budget over planned requests,
// preserving request order (misclassified exploitation is planned before
// boundary exploitation, matching the paper's priority). Counts shrink
// proportionally; requests that fall to zero are dropped.
func trimRequests(reqs []sampleRequest, budget int) []sampleRequest {
	total := 0
	for _, r := range reqs {
		total += r.n
	}
	if total <= budget {
		return reqs
	}
	scale := float64(budget) / float64(total)
	out := make([]sampleRequest, 0, len(reqs))
	used := 0
	for _, r := range reqs {
		n := int(math.Floor(float64(r.n) * scale))
		if n <= 0 {
			continue
		}
		if used+n > budget {
			n = budget - used
		}
		if n <= 0 {
			break
		}
		r.n = n
		out = append(out, r)
		used += n
	}
	// Distribute leftover budget to the earliest requests.
	for i := 0; used < budget && i < len(out); i++ {
		out[i].n++
		used++
	}
	// A budget smaller than the request count can starve everything in
	// the proportional pass; fall back to the highest-priority request.
	if len(out) == 0 && budget > 0 && len(reqs) > 0 {
		first := reqs[0]
		if first.n > budget {
			first.n = budget
		}
		out = append(out, first)
	}
	return out
}
