package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/service"
)

// sessionResult is what one simulated user observed.
type sessionResult struct {
	Index       int
	FirstSample time.Duration   // POST /v1/sessions sent -> first sample received
	Steps       []time.Duration // POST /label sent -> next GET /sample returned
	Iterations  int             // Status.iteration after the last step
	SQL         string
	Areas       [][]service.Bounds
	Ops         int   // HTTP operations attempted
	Err         error // first failed operation or failed check; the session stops there
}

// newClient returns a service client on its own keep-alive connection.
// Retries are off: a shed or failed request must surface as a failure,
// not hide inside a backoff.
func newClient(base string) *service.Client {
	c := service.NewClient(base, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	c.MaxRetries = -1
	return c
}

// runSession drives one session start to finish through service.Client:
// closed loop, zero think time. Every sample's values are checked
// against the regenerated table. tr is nil outside the traced run.
func runSession(ctx context.Context, c *service.Client, tab *dataset.Table, spec sessionSpec, tr *tracer) sessionResult {
	res := sessionResult{Index: spec.Index}
	fail := func(err error) sessionResult {
		res.Err = fmt.Errorf("session %d: %w", spec.Index, err)
		return res
	}
	names := tab.Schema().Names()
	checkSample := func(s service.Sample) error {
		if s.Row < 0 || s.Row >= tab.NumRows() || len(s.Values) != len(names) {
			return fmt.Errorf("sample row %d with %d values is not a row of the table", s.Row, len(s.Values))
		}
		for i, name := range names {
			if s.Values[name] != tab.Value(s.Row, i) {
				return fmt.Errorf("sample row %d: %s = %v, table holds %v", s.Row, name, s.Values[name], tab.Value(s.Row, i))
			}
		}
		return nil
	}

	var id string
	var sample service.Sample
	var err error
	first := tr.open("client.first", "s%d/first", spec.Index)
	start := time.Now()
	res.Ops++
	first.op("client.create", func() { id, err = c.CreateSession(ctx, spec.Req) })
	if err != nil {
		first.close()
		return fail(err)
	}
	res.Ops++
	first.op("client.sample", func() { sample, err = c.NextSample(ctx, id) })
	res.FirstSample = time.Since(start)
	first.close()

	for n := 0; err == nil; n++ {
		if err = checkSample(sample); err != nil {
			break
		}
		relevant := spec.relevant(sample.Row)
		step := tr.open("client.step", "s%d/%d", spec.Index, n)
		t0 := time.Now()
		res.Ops++
		step.op("client.label", func() { err = c.SubmitLabel(ctx, id, sample.Row, relevant) })
		if err == nil {
			res.Ops++
			step.op("client.sample", func() { sample, err = c.NextSample(ctx, id) })
		}
		res.Steps = append(res.Steps, time.Since(t0))
		step.close()
	}
	if !errors.Is(err, service.ErrSessionDone) {
		return fail(err)
	}

	end := tr.open("client.end", "s%d/end", spec.Index)
	defer end.close()
	var st service.Status
	res.Ops++
	end.op("client.status", func() { st, err = c.Status(ctx, id) })
	if err != nil {
		return fail(err)
	}
	res.Iterations = st.Iteration
	var q service.QueryResponse
	res.Ops++
	end.op("client.query", func() { q, err = c.PredictedQuery(ctx, id) })
	if err != nil {
		return fail(err)
	}
	res.SQL, res.Areas = q.SQL, q.Areas
	res.Ops++
	end.op("client.delete", func() { err = c.Close(ctx, id) })
	if err != nil {
		return fail(err)
	}
	if st.Iteration != spec.Req.MaxIterations {
		return fail(fmt.Errorf("ended after %d iterations, want max_iterations = %d", st.Iteration, spec.Req.MaxIterations))
	}
	return res
}

// abandonSession is a user who opens an exploration, looks at the first
// sample and leaves: create, first sample, delete.
func abandonSession(ctx context.Context, c *service.Client, spec sessionSpec) (first time.Duration, err error) {
	start := time.Now()
	id, err := c.CreateSession(ctx, spec.Req)
	if err != nil {
		return 0, err
	}
	_, err = c.NextSample(ctx, id)
	first = time.Since(start)
	if err != nil {
		return 0, err
	}
	return first, c.Close(ctx, id)
}

const (
	// abandonedOps is the HTTP operations of one abandoned session.
	abandonedOps = 3
	// abandonedStream is the first session index of the abandoned
	// sessions, far beyond any a timed run reaches.
	abandonedStream = 1 << 20
)

// driveResult is the timed part of a run.
type driveResult struct {
	Sessions []sessionResult
	// Abandoned holds the first-sample times of the abandoned sessions.
	Abandoned []time.Duration
}

// probeEvery is the least time between two probes of a run.
const probeEvery = 500 * time.Millisecond

// drive runs the workload's clients against base. Each client warms up
// with w.Warmup untimed sessions; once all have, the clients start the
// timed sessions: client c of C takes sessions c, c+C, c+2C, ... and
// starts a new one while fewer than maxSessions were handed out and, when
// budget is positive, the budget has not elapsed. A session once started
// always runs to its end, so the measured work is whole sessions.
//
// probe reads the server's counters and the processes' accounting. It is
// called when the timed sessions start, then by whichever client ends a
// session probeEvery or more after the last call, and once more when all
// are done: the run is cut into intervals whose rates can be compared.
//
// A run of long sessions completes only a handful, too few for a steady
// first_sample_ms. So after each timed session the client opens and
// abandons `abandon` more: observations spread over the whole window like
// every other metric's.
func drive(ctx context.Context, base string, w workload, tab *dataset.Table, seed int64,
	budget time.Duration, maxSessions, abandon int, probe func() error) (driveResult, error) {
	var (
		out       driveResult
		mu        sync.Mutex // guards out, lastProbe and probeErr, and serializes probes
		lastProbe time.Time
		probeErr  error
		warm      sync.WaitGroup
		done      sync.WaitGroup
		begin     = make(chan struct{})
		warmErr   = make([]error, w.Clients)
		timed     time.Time
	)
	for c := 0; c < w.Clients; c++ {
		warm.Add(1)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			client := newClient(base)
			var err error
			for k := 0; k < w.Warmup && err == nil; k++ {
				var spec sessionSpec
				if spec, err = w.session(tab, seed, -1-c-k*w.Clients); err == nil {
					err = runSession(ctx, client, tab, spec, nil).Err
				}
			}
			warmErr[c] = err
			warm.Done()
			<-begin
			if err != nil {
				return
			}
			for i := c; i < maxSessions; i += w.Clients {
				if budget > 0 && time.Since(timed) >= budget {
					return
				}
				spec, err := w.session(tab, seed, i)
				res := sessionResult{Index: i, Err: err}
				if err == nil {
					res = runSession(ctx, client, tab, spec, nil)
				}
				var firsts []time.Duration
				for k := 0; k < abandon && res.Err == nil; k++ {
					var first time.Duration
					if spec, err = w.session(tab, seed, abandonedStream+i*abandon+k); err == nil {
						first, err = abandonSession(ctx, client, spec)
					}
					if err != nil {
						res.Err = fmt.Errorf("abandoned session after session %d: %w", i, err)
						break
					}
					firsts = append(firsts, first)
				}
				mu.Lock()
				out.Sessions = append(out.Sessions, res)
				out.Abandoned = append(out.Abandoned, firsts...)
				if res.Err == nil && probeErr == nil && time.Since(lastProbe) >= probeEvery {
					probeErr = probe()
					lastProbe = time.Now()
				}
				failed := res.Err != nil || probeErr != nil
				mu.Unlock()
				if failed {
					return // no operation may fail: the client stops at the first that does
				}
			}
		}(c)
	}
	warm.Wait()
	err := errors.Join(warmErr...)
	if err == nil {
		err = probe()
	}
	timed, lastProbe = time.Now(), time.Now()
	close(begin)
	done.Wait()
	if err != nil {
		return out, fmt.Errorf("warm-up: %w", err)
	}
	if probeErr != nil {
		return out, probeErr
	}
	if err := probe(); err != nil {
		return out, err
	}
	return out, ctx.Err()
}
