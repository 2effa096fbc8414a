package engine

import (
	"sync"
	"sync/atomic"
)

// ShardState is one step of a shard's supervised health lifecycle.
//
//	Healthy ──fail──▶ Suspect ──fail──▶ Quarantined
//	   ▲                 │                   │ cooldown ops elapse
//	   │              success                ▼
//	   └────────────────┴──────────── Recovering ──fail──▶ Quarantined
//	                                      │success
//	                                      ▶ Healthy
//
// Outcomes are recorded at operation level (after retries and hedges
// have been exhausted), so one slow attempt never moves a shard: only
// an operation the shard could not serve at all does. Two consecutive
// failed operations quarantine; a quarantined shard is skipped —
// queries degrade to partial results — until a cooldown measured in
// scatter operations elapses, after which one probe operation is
// admitted (Recovering). The probe's outcome decides: success restores
// Healthy, failure re-quarantines for another cooldown.
type ShardState int32

const (
	ShardHealthy ShardState = iota
	ShardSuspect
	ShardQuarantined
	ShardRecovering
)

// String returns the lowercase state name used in health endpoints and
// metrics.
func (s ShardState) String() string {
	switch s {
	case ShardHealthy:
		return "healthy"
	case ShardSuspect:
		return "suspect"
	case ShardQuarantined:
		return "quarantined"
	case ShardRecovering:
		return "recovering"
	}
	return "unknown"
}

// ShardTransition is one recorded state change: at operation tick Tick,
// shard Shard moved From -> To. The supervisor keeps a bounded log so
// chaos tests can assert the exact transition sequence is deterministic
// under a seeded injector.
type ShardTransition struct {
	Tick  uint64
	Shard int
	From  ShardState
	To    ShardState
}

// quarantineFails is how many consecutive failed operations move a
// shard from healthy to quarantined (via suspect).
const quarantineFails = 2

// defaultCooldownOps is how many scatter operations a quarantined shard
// sits out before a probe is admitted.
const defaultCooldownOps = 8

// maxTransitionLog bounds the supervisor's transition history.
const maxTransitionLog = 256

// supervisor tracks per-shard health across scatter operations; it is
// the only failure detector between the coordinator and its shards,
// local or remote. All state sits behind one mutex — transitions are
// rare (failures only) and the per-operation cost for a healthy shard
// is one short critical section in admit plus one in record. The
// quarantine cooldown counts scatter operations: deterministic under
// test, load-proportional in production.
type supervisor struct {
	tick     atomic.Uint64 // scatter operations started; the clock cooldowns count in
	cooldown uint64

	mu            sync.Mutex
	states        []ShardState
	fails         []int    // consecutive failed operations per shard
	quarantinedAt []uint64 // tick of the most recent quarantine entry
	log           []ShardTransition
}

func newSupervisor(n int, opts ShardOptions) *supervisor {
	cooldownOps := opts.CooldownOps
	if cooldownOps <= 0 {
		cooldownOps = defaultCooldownOps
	}
	return &supervisor{
		cooldown:      uint64(cooldownOps),
		states:        make([]ShardState, n),
		fails:         make([]int, n),
		quarantinedAt: make([]uint64, n),
	}
}

// beginOp advances the operation clock; every scatter calls it exactly
// once, so cooldowns are measured in operations, not wall time —
// deterministic under test.
func (s *supervisor) beginOp() uint64 { return s.tick.Add(1) }

// admit decides whether shard i participates in the operation that
// started at tick. A quarantined shard whose cooldown has elapsed is
// moved to recovering and admitted as a probe.
func (s *supervisor) admit(i int, tick uint64) (admitted, probe bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.states[i] {
	case ShardHealthy, ShardSuspect:
		return true, false
	case ShardRecovering:
		return true, true
	default: // ShardQuarantined
		if tick-s.quarantinedAt[i] >= s.cooldown {
			s.transition(i, tick, ShardRecovering)
			return true, true
		}
		return false, false
	}
}

// record notes the outcome of shard i's operation (post-retry,
// post-hedge) and applies the state machine.
func (s *supervisor) record(i int, tick uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok {
		s.fails[i] = 0
		if s.states[i] != ShardHealthy {
			s.transition(i, tick, ShardHealthy)
		}
		return
	}
	s.fails[i]++
	switch s.states[i] {
	case ShardHealthy:
		s.transition(i, tick, ShardSuspect)
	case ShardSuspect:
		if s.fails[i] >= quarantineFails {
			s.quarantine(i, tick)
		}
	case ShardRecovering:
		// Failed probe: back to quarantine for another cooldown.
		s.quarantine(i, tick)
	}
}

// quarantine stamps the cooldown clock and enters quarantine; callers
// hold s.mu.
func (s *supervisor) quarantine(i int, tick uint64) {
	s.quarantinedAt[i] = tick
	s.transition(i, tick, ShardQuarantined)
}

// transition applies and logs a state change; callers hold s.mu.
func (s *supervisor) transition(i int, tick uint64, to ShardState) {
	from := s.states[i]
	if from == to {
		return
	}
	s.states[i] = to
	if len(s.log) >= maxTransitionLog {
		copy(s.log, s.log[1:])
		s.log = s.log[:maxTransitionLog-1]
	}
	s.log = append(s.log, ShardTransition{Tick: tick, Shard: i, From: from, To: to})
}

// state returns shard i's current state.
func (s *supervisor) state(i int) ShardState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.states[i]
}

// snapshot returns a copy of every shard's state and consecutive-fail
// count.
func (s *supervisor) snapshot() ([]ShardState, []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	states := make([]ShardState, len(s.states))
	copy(states, s.states)
	fails := make([]int, len(s.fails))
	copy(fails, s.fails)
	return states, fails
}

// transitions returns a copy of the bounded transition log.
func (s *supervisor) transitions() []ShardTransition {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ShardTransition, len(s.log))
	copy(out, s.log)
	return out
}
