package explore

import (
	"math"
	"time"

	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/obs"
)

// Process-wide steering-loop metrics, resolved once.
var (
	obsIterations       = obs.GetCounter("explore.iterations")
	obsSamplesProposed  = obs.GetCounter("explore.samples_proposed")
	obsLabelsReceived   = obs.GetCounter("explore.labels_received")
	obsLabelsRelevant   = obs.GetCounter("explore.labels_relevant")
	obsAreasPredicted   = obs.GetGauge("explore.areas_predicted")
	obsIterationSeconds = obs.GetHistogram("explore.iteration_seconds")
	obsTrainSeconds     = obs.GetHistogram("explore.train_seconds")
	// Session creation is a user-visible wait of its own: clustering and
	// hybrid discovery fit their k-means hierarchy inside NewSession.
	obsNewSessionSeconds = obs.GetHistogram("explore.new_session_seconds")

	// aide_iteration_seconds{phase} attributes iteration wall time to the
	// steering phases plus classifier training; children are resolved once
	// so per-iteration cost is one histogram observe per active phase.
	obsIterPhaseVec = obs.GetHistogramVec("aide_iteration_seconds", "phase")
	obsPhaseSeconds = [numPhases]*obs.Histogram{
		PhaseDiscovery: obsIterPhaseVec.With(PhaseDiscovery.String()),
		PhaseMisclass:  obsIterPhaseVec.With(PhaseMisclass.String()),
		PhaseBoundary:  obsIterPhaseVec.With(PhaseBoundary.String()),
	}
	obsTrainPhaseSeconds = obsIterPhaseVec.With("train")
)

// SetRecorder attaches a trace recorder to the session: every subsequent
// RunIteration publishes one root span ("iteration") with child spans for
// the steering phases, CART retraining, and each sample-extraction query.
// A nil recorder (the default) disables tracing at zero cost.
func (s *Session) SetRecorder(r *obs.Recorder) { s.rec = r }

// Recorder returns the attached trace recorder, or nil.
func (s *Session) Recorder() *obs.Recorder { return s.rec }

// SetFlightRecorder attaches a flight recorder: every subsequent
// RunIteration records one wide event (phase timings, sample and budget
// state, cache deltas, convergence signals). Recording is observational
// only — a session with a recorder stays bit-identical to one without.
// A nil recorder (the default) disables flight recording.
func (s *Session) SetFlightRecorder(f *obs.FlightRecorder) { s.flight = f }

// FlightRecorder returns the attached flight recorder, or nil.
func (s *Session) FlightRecorder() *obs.FlightRecorder { return s.flight }

// SetSpanAnnotator registers a callback invoked with each iteration's
// root span right after it is created, before any phase runs. The
// service uses it to stamp the request ids that drove the session since
// the previous iteration, correlating /v1/sessions/{id}/trace with
// request logs. The callback runs on the session goroutine.
func (s *Session) SetSpanAnnotator(fn func(*obs.Span)) { s.annotate = fn }

// recordFlight emits one wide event for a completed iteration to the
// attached flight recorder. It runs once per iteration on the session
// goroutine, after the classifier is published — never on the
// per-sample hot path — and reads session state without mutating it, so
// flight recording cannot perturb steering.
func (s *Session) recordFlight(res *IterationResult, budget int, cacheBefore engine.CacheStats, queriesBefore [3]int) {
	if s.flight == nil {
		return
	}
	ev := obs.FlightEvent{
		Iteration:      res.Iteration,
		Time:           time.Now(),
		DurationMS:     float64(res.Duration) / float64(time.Millisecond),
		NewSamples:     res.NewSamples,
		NewRelevant:    res.NewRelevant,
		TotalLabeled:   res.TotalLabeled,
		MaxLabeledRows: s.opts.Budget.MaxLabeledRows,
		Conflicts:      res.Conflicts,
		Degradations:   res.Degradations,
		RelevantAreas:  res.RelevantAreas,
	}
	if budget < math.MaxInt32 {
		// MaxInt32 is the internal stand-in for "unlimited"; report 0.
		ev.SamplesRequested = budget
	}
	for p, d := range res.PhaseDurations {
		if d > 0 {
			if ev.PhaseMS == nil {
				ev.PhaseMS = make(map[string]float64, numPhases+1)
			}
			ev.PhaseMS[Phase(p).String()] = float64(d) / float64(time.Millisecond)
		}
	}
	if res.TrainDuration > 0 {
		if ev.PhaseMS == nil {
			ev.PhaseMS = make(map[string]float64, 1)
		}
		ev.PhaseMS["train"] = float64(res.TrainDuration) / float64(time.Millisecond)
	}
	for p, n := range res.PhaseSamples {
		if n > 0 {
			if ev.PhaseSamples == nil {
				ev.PhaseSamples = make(map[string]int, numPhases)
			}
			ev.PhaseSamples[Phase(p).String()] = n
		}
	}
	for p := range s.stats.PhaseQueries {
		if d := s.stats.PhaseQueries[p] - queriesBefore[p]; d > 0 {
			if ev.PhaseQueries == nil {
				ev.PhaseQueries = make(map[string]int, numPhases)
			}
			ev.PhaseQueries[Phase(p).String()] = d
		}
	}
	if c := s.view.Cache(); c != nil {
		// Deltas over the view's cache; a cache shared across sessions
		// attributes concurrent traffic to whichever iteration scrapes it.
		now := c.Stats()
		ev.CacheHits = now.Hits - cacheBefore.Hits
		ev.CacheMisses = now.Misses - cacheBefore.Misses
		ev.CachePlanHits = now.PlanHits - cacheBefore.PlanHits
	}
	if s.tree != nil {
		ev.TreeNodes = s.tree.NumNodes()
	}
	if len(s.areas) > 0 {
		ev.Predicate = s.FinalQuery().SQL()
	}
	s.flight.Record(ev)
}

// sampleOneNearCenter wraps View.SampleOneNearCenter with a per-query
// trace span under the current phase span. Discovery calls this for its
// per-cell (or per-cluster) retrieval queries.
func (s *Session) sampleOneNearCenter(center geom.Point, gamma float64) int {
	qs := s.phaseSpan.Child("engine.sample_near")
	row := s.view.SampleOneNearCenter(center, gamma, s.rng)
	qs.SetAttr("gamma", gamma)
	qs.SetAttr("hit", row >= 0)
	qs.End()
	return row
}

// drawOneNear is sampleOneNearCenter's batched twin: the retrieval query
// already ran inside an ExecuteBatch, so this only draws the row (the
// rng-consuming step) and emits the same per-query span the sequential
// helper did.
func (s *Session) drawOneNear(br *engine.BatchResults, idx int, gamma float64) int {
	qs := s.phaseSpan.Child("engine.sample_near")
	rows := br.Sample(idx, s.rng)
	qs.SetAttr("gamma", gamma)
	qs.SetAttr("hit", len(rows) > 0)
	qs.End()
	if len(rows) == 0 {
		return -1
	}
	return rows[0]
}
