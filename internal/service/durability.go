package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"

	"github.com/explore-by-example/aide/internal/durable"
	"github.com/explore-by-example/aide/internal/explore"
)

// RecoverSessions replays every write-ahead log in the durable data
// directory, resurrecting the sessions a previous process left behind —
// after a crash, a SIGKILL, or a janitor eviction. Call it once, before
// serving traffic.
//
// Each recovered session keeps its original ID, so clients reconnect to
// the same URLs. Recovery replays the log through a fresh session: the
// creation record rebuilds the configuration, and the label history
// answers the oracle instantly, so the deterministic steering loop
// re-traverses the exact trajectory the user steered — bit-identical
// predicates — without asking for a single label again. If the log was
// compacted, replay starts from the embedded snapshot instead
// (converging, not bit-identical; see Server.SnapshotEvery).
//
// A log that cannot be recovered (unknown view, corrupt create record)
// is skipped with a log line, never deleted: the bytes may still be
// salvageable by hand.
func (s *Server) RecoverSessions(logger *slog.Logger) (int, error) {
	if s.Durable == nil {
		return 0, nil
	}
	if logger == nil {
		logger = slog.Default()
	}
	ids, err := s.Durable.List()
	if err != nil {
		return 0, err
	}
	recovered := 0
	for _, id := range ids {
		if err := s.recoverOne(id); err != nil {
			logger.Warn("session recovery skipped", "session", id, "error", err)
			continue
		}
		recovered++
		obsSessionsRecovered.Inc()
	}
	return recovered, nil
}

func (s *Server) recoverOne(id string) error {
	s.mu.Lock()
	_, exists := s.sessions[id]
	s.mu.Unlock()
	if exists {
		return fmt.Errorf("session %s already live", id)
	}
	log, recs, err := s.Durable.Open(id)
	if err != nil {
		return err
	}
	if len(recs) == 0 || recs[0].Type != durable.RecCreate {
		log.Close()
		return fmt.Errorf("log has no create record")
	}
	var req CreateSessionRequest
	if err := json.Unmarshal(recs[0].Payload, &req); err != nil {
		log.Close()
		return fmt.Errorf("corrupt create record: %w", err)
	}
	s.mu.Lock()
	view := s.views[req.View]
	s.mu.Unlock()
	if view == nil {
		log.Close()
		return fmt.Errorf("view %q not registered", req.View)
	}
	// Replay is only bit-identical over the exact data the labels were
	// recorded against. Old logs (pre-fingerprint) carry no fingerprint
	// and are replayed on trust.
	if req.ViewFingerprint != "" && req.ViewFingerprint != view.Fingerprint() {
		log.Close()
		return fmt.Errorf("view %q fingerprint mismatch: log has %s, view is %s",
			req.View, req.ViewFingerprint, view.Fingerprint())
	}
	opts, err := s.optsFromRequest(req)
	if err != nil {
		log.Close()
		return fmt.Errorf("corrupt create record: %w", err)
	}

	// Replay starts after the latest snapshot (if the log was
	// compacted); labels before it are already inside the snapshot.
	var snapshot []byte
	start := 1
	for i, r := range recs {
		if r.Type == durable.RecSnapshot {
			snapshot = r.Payload
			start = i + 1
		}
	}
	ls := s.newLiveSession(id, req, opts)
	ls.wal = log
	for _, r := range recs[start:] {
		if r.Type != durable.RecLabel {
			continue
		}
		row, relevant, err := durable.DecodeLabel(r.Payload)
		if err != nil {
			continue // checksummed but malformed: skip, like a corrupt record
		}
		ls.histPut(int(row), relevant)
	}
	// The next compaction waits for SnapshotEvery labels beyond what the
	// log already holds.
	ls.compactedAt = ls.histN
	ls.baseSnapshot = snapshot

	var sess *explore.Session
	if snapshot != nil {
		sess, err = explore.Resume(bytes.NewReader(snapshot), view, s.oracleFor(ls))
	} else {
		sess, err = explore.NewSession(view, s.oracleFor(ls), opts)
	}
	if err != nil {
		ls.cancel()
		log.Close()
		return fmt.Errorf("rebuilding session: %w", err)
	}
	// The flight journal reopens in append mode: a recovered session's
	// events continue the same file its previous incarnation wrote.
	s.openFlight(ls)
	ls.instrument(sess)

	s.mu.Lock()
	s.sessions[id] = ls
	s.mu.Unlock()
	obsSessionsActive.Add(1)
	go s.runSession(ls, sess, view)
	return nil
}
