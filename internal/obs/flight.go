package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// The exploration flight recorder is a bounded per-session journal of
// wide events: one self-contained JSON object per steering iteration
// capturing where that iteration's time, samples and cache traffic
// went. The in-memory ring serves GET /v1/sessions/{id}/events; an
// optional sink persists the same lines as JSONL next to the session's
// WAL so a crashed or finished exploration can still be replayed into a
// per-phase latency/convergence report (aidebench -trace).
//
// Recording happens once per iteration on the session goroutine — off
// the per-sample hot path — and never feeds back into steering, so a
// session with the recorder attached stays bit-identical to one
// without.

// FlightEventSchema is the version stamped into every event. Bump it
// when a field changes meaning; consumers skip events with a newer
// schema than they understand.
const FlightEventSchema = 1

// FlightEvent is one iteration's wide event.
type FlightEvent struct {
	// Schema is the event-format version (FlightEventSchema).
	Schema int `json:"schema"`
	// Session is the recording session's id (stamped by the recorder).
	Session string `json:"session,omitempty"`
	// Iteration is the 0-based iteration number.
	Iteration int `json:"iteration"`
	// Time is when the iteration finished.
	Time time.Time `json:"time"`

	// DurationMS is the iteration's total system execution time;
	// PhaseMS breaks it down by steering phase (discovery,
	// misclassified, boundary, train).
	DurationMS float64            `json:"duration_ms"`
	PhaseMS    map[string]float64 `json:"phase_ms,omitempty"`

	// SamplesRequested is the iteration's sample budget; NewSamples and
	// NewRelevant count what labeling actually produced. PhaseSamples
	// and PhaseQueries attribute samples and extraction queries to
	// phases.
	SamplesRequested int            `json:"samples_requested"`
	NewSamples       int            `json:"new_samples"`
	NewRelevant      int            `json:"new_relevant"`
	PhaseSamples     map[string]int `json:"phase_samples,omitempty"`
	PhaseQueries     map[string]int `json:"phase_queries,omitempty"`

	// TotalLabeled is the cumulative labeling effort; MaxLabeledRows is
	// the session's budget cap (0 = unlimited) — together they are the
	// budget state.
	TotalLabeled   int `json:"total_labeled"`
	MaxLabeledRows int `json:"max_labeled_rows,omitempty"`

	// Conflicts counts label contradictions this iteration;
	// Degradations lists the budget fallbacks that were active.
	Conflicts    int      `json:"conflicts,omitempty"`
	Degradations []string `json:"degradations,omitempty"`

	// CacheHits/CacheMisses are the view's predicate-cache deltas over
	// this iteration (absent when the view has no cache); CachePlanHits
	// is the share of the hits that answered a sample plan, i.e. saved a
	// grid pass rather than a count.
	CacheHits     int64 `json:"cache_hits,omitempty"`
	CacheMisses   int64 `json:"cache_misses,omitempty"`
	CachePlanHits int64 `json:"cache_plan_hits,omitempty"`

	// TreeNodes is the classifier size after retraining; RelevantAreas
	// the number of predicted relevant areas; Predicate the rendered
	// predicted-query predicate — the convergence signals.
	TreeNodes     int    `json:"tree_nodes"`
	RelevantAreas int    `json:"relevant_areas"`
	Predicate     string `json:"predicate,omitempty"`
}

// FlightRecorder keeps the most recent events in a ring and optionally
// mirrors each event to a persistent JSONL sink. Safe for one writer
// (the session goroutine) and many readers.
type FlightRecorder struct {
	mu      sync.Mutex
	session string
	cap     int
	ring    []FlightEvent
	next    int
	total   int64
	sink    io.Writer
	sinkErr error
}

// NewFlightRecorder creates a recorder for the given session keeping
// the last capacity events (capacity <= 0 defaults to 256). sink, when
// non-nil, receives each event as one JSON line; write failures are
// remembered (SinkErr) but do not fail recording.
func NewFlightRecorder(session string, capacity int, sink io.Writer) *FlightRecorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &FlightRecorder{session: session, cap: capacity, sink: sink}
}

// Record stamps the event with the session id and schema version and
// appends it to the ring and the sink. Nil-safe.
func (f *FlightRecorder) Record(ev FlightEvent) {
	if f == nil {
		return
	}
	ev.Schema = FlightEventSchema
	f.mu.Lock()
	defer f.mu.Unlock()
	ev.Session = f.session
	if len(f.ring) < f.cap {
		f.ring = append(f.ring, ev)
	} else {
		f.ring[f.next] = ev
		f.next = (f.next + 1) % f.cap
	}
	f.total++
	if f.sink != nil {
		line, err := json.Marshal(ev)
		if err == nil {
			line = append(line, '\n')
			_, err = f.sink.Write(line)
		}
		if err != nil && f.sinkErr == nil {
			f.sinkErr = err
		}
	}
}

// Total returns how many events were ever recorded.
func (f *FlightRecorder) Total() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// SinkErr returns the first sink write failure, or nil.
func (f *FlightRecorder) SinkErr() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sinkErr
}

// Snapshot returns the retained events oldest-first.
func (f *FlightRecorder) Snapshot() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, 0, len(f.ring))
	for i := 0; i < len(f.ring); i++ {
		out = append(out, f.ring[(f.next+i)%len(f.ring)])
	}
	return out
}

// WriteJSONL writes the retained events as JSONL, the same format the
// persistent sink receives.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	for _, ev := range f.Snapshot() {
		line, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// ReadJournal parses a flight-recorder JSONL journal, skipping blank
// lines and events with a schema newer than this build understands. A
// malformed line fails the whole read: journals are machine-written,
// so corruption should surface, not vanish.
func ReadJournal(r io.Reader) ([]FlightEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var out []FlightEvent
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev FlightEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return out, fmt.Errorf("obs: journal line %d: %w", lineNo, err)
		}
		if ev.Schema > FlightEventSchema {
			continue
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: reading journal: %w", err)
	}
	return out, nil
}
