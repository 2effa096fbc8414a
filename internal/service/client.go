package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/explore-by-example/aide/internal/explore"
	"github.com/explore-by-example/aide/internal/obs"
)

// Client is a Go client for the exploration service. It wraps the
// sequential label protocol so a caller loops:
//
//	id, _ := c.CreateSession(ctx, service.CreateSessionRequest{View: "sdss"})
//	for {
//		sample, err := c.NextSample(ctx, id)
//		if errors.Is(err, service.ErrSessionDone) { break }
//		...show sample.Values to the user...
//		c.SubmitLabel(ctx, id, sample.Row, relevant)
//	}
//	q, _ := c.PredictedQuery(ctx, id)
type Client struct {
	base string
	http *http.Client

	// MaxRetries bounds how many times a request is retried after a 503
	// (the server shedding load or an injected fault; both answer before
	// doing any work, so retrying is always safe). Default 4; negative
	// disables retries.
	MaxRetries int
	// BaseBackoff is the first retry's backoff ceiling; each further
	// attempt doubles it up to MaxBackoff, and the actual sleep is drawn
	// uniformly from [0, ceiling) ("full jitter") so synchronized
	// clients spread out. A Retry-After header raises the floor to the
	// server's ask. Defaults 100ms / 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// NewClient creates a client for a server at baseURL (e.g.
// "http://localhost:8080"). httpClient may be nil for
// http.DefaultClient. One Client is one pooled transport: a sequential
// caller stays on a single keep-alive connection for the Client's whole
// life. Share one (it is safe for concurrent use); don't make one per session.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		base:        strings.TrimRight(baseURL, "/"),
		http:        httpClient,
		MaxRetries:  4,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  5 * time.Second,
	}
}

// CreateSession starts a new exploration session.
func (c *Client) CreateSession(ctx context.Context, req CreateSessionRequest) (string, error) {
	var resp CreateSessionResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// NextSample fetches the next tuple awaiting a label. It returns
// ErrSessionDone once the session has finished.
func (c *Client) NextSample(ctx context.Context, id string) (Sample, error) {
	var s Sample
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/sample", nil, &s); err != nil {
		return Sample{}, err
	}
	if s.Done {
		return Sample{}, ErrSessionDone
	}
	return s, nil
}

// SubmitLabel answers the outstanding sample.
func (c *Client) SubmitLabel(ctx context.Context, id string, row int, relevant bool) error {
	return c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/label",
		LabelRequest{Row: row, Relevant: relevant}, nil)
}

// Status returns the session's progress snapshot.
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/status", nil, &st)
	return st, err
}

// PredictedQuery returns the current predicted query.
func (c *Client) PredictedQuery(ctx context.Context, id string) (QueryResponse, error) {
	var q QueryResponse
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/query", nil, &q)
	return q, err
}

// Close stops and discards the session.
func (c *Client) Close(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// Views lists the views the server exposes, with row counts and
// exploration attributes.
func (c *Client) Views(ctx context.Context) ([]ViewInfo, error) {
	var resp struct {
		Views []ViewInfo `json:"views"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/views", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Views, nil
}

// ViewNames lists the names of the views the server exposes.
func (c *Client) ViewNames(ctx context.Context) ([]string, error) {
	infos, err := c.Views(ctx)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(infos))
	for i, v := range infos {
		names[i] = v.Name
	}
	return names, nil
}

// Trace returns the session's recent per-iteration trace spans.
func (c *Client) Trace(ctx context.Context, id string) (TraceResponse, error) {
	var tr TraceResponse
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/trace", nil, &tr)
	return tr, err
}

// Metrics returns the server's metric snapshot: counters and gauges as
// numbers, histograms as objects with count/sum/p50/p95/p99.
func (c *Client) Metrics(ctx context.Context) (map[string]any, error) {
	var m map[string]any
	if err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &m); err != nil {
		return nil, err
	}
	return m, nil
}

// Health reports whether the server answers its liveness probe.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// PrometheusMetrics returns the server's /metrics text exposition
// (Prometheus format 0.0.4), verbatim.
func (c *Client) PrometheusMetrics(ctx context.Context) ([]byte, error) {
	var raw []byte
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// SLO returns the server's multi-window SLO burn-rate status.
func (c *Client) SLO(ctx context.Context) (obs.SLOStatus, error) {
	var st obs.SLOStatus
	err := c.do(ctx, http.MethodGet, "/v1/slo", nil, &st)
	return st, err
}

// Events returns the session's retained flight-recorder events, oldest
// first, parsed from the server's JSONL stream.
func (c *Client) Events(ctx context.Context, id string) ([]obs.FlightEvent, error) {
	var raw []byte
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/events", nil, &raw); err != nil {
		return nil, err
	}
	return obs.ReadJournal(bytes.NewReader(raw))
}

// Status mirrors the server's progress snapshot (the SQL field carries a
// nested QueryResponse payload; prefer PredictedQuery).
type Status struct {
	Iteration     int     `json:"iteration"`
	TotalLabeled  int     `json:"total_labeled"`
	TotalRelevant int     `json:"total_relevant"`
	RelevantAreas int     `json:"relevant_areas"`
	Done          bool    `json:"done"`
	WaitSeconds   float64 `json:"avg_wait_seconds"`
	// Conflicts summarizes contradictory labels and their resolution.
	Conflicts explore.ConflictStats `json:"conflicts"`
	// Degradations lists budget fallbacks from the latest iteration.
	Degradations []string `json:"degradations,omitempty"`
}

// do executes one JSON request/response exchange, retrying 503s (load
// shedding, injected unavailability) with jittered exponential backoff.
// A 503 is answered before the server does any work, so retrying is
// safe for every method including POST. The context bounds the whole
// exchange: cancellation interrupts backoff sleeps immediately.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var buf []byte
	if body != nil {
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("service: encoding request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		retryAfter, err := c.doOnce(ctx, method, path, buf, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if retryAfter < 0 || attempt >= c.MaxRetries {
			return lastErr
		}
		if err := sleepBackoff(ctx, c.backoff(attempt), retryAfter); err != nil {
			return fmt.Errorf("service: retrying %s %s: %w", method, path, err)
		}
	}
}

// maxTailBytes bounds what doOnce reads beyond what its caller asked
// for: the remainder drained before Close, and an error body. More than
// this is closed unread, costing that connection, not an unbounded read.
const maxTailBytes = 64 << 10

// doOnce runs one attempt. retryAfter >= 0 marks the error retryable,
// carrying the server's Retry-After ask (0 when absent).
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any) (retryAfter time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return -1, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return -1, err
	}
	// The transport reuses a connection only if its body was read to EOF
	// before Close. Every exit therefore drains what it left unread (all
	// of it when out is nil, the final chunk behind a decoded JSON value)
	// through tail, which also bounds the error-body decode.
	tail := &io.LimitedReader{R: resp.Body, N: maxTailBytes}
	defer func() {
		io.Copy(io.Discard, tail)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if json.NewDecoder(tail).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		err := fmt.Errorf("service: %s %s: %s", method, path, msg)
		if resp.StatusCode == http.StatusServiceUnavailable {
			ra := time.Duration(0)
			if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs >= 0 {
				ra = time.Duration(secs) * time.Second
			}
			return ra, err
		}
		return -1, err
	}
	if out == nil {
		return -1, nil
	}
	if raw, ok := out.(*[]byte); ok {
		// Non-JSON endpoints (Prometheus exposition, JSONL event
		// streams) are fetched verbatim.
		*raw, err = io.ReadAll(resp.Body)
		if err != nil {
			return -1, fmt.Errorf("service: reading response: %w", err)
		}
		return -1, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return -1, fmt.Errorf("service: decoding response: %w", err)
	}
	return -1, nil
}

// backoff returns the ceiling for the attempt'th retry sleep.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := c.MaxBackoff
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base << uint(attempt)
	if d <= 0 || d > max { // <<-overflow or past the cap
		d = max
	}
	return d
}

// sleepBackoff sleeps a full-jitter draw from [0, ceiling), floored by
// the server's Retry-After ask, or returns early when ctx ends.
func sleepBackoff(ctx context.Context, ceiling, floor time.Duration) error {
	d := time.Duration(rand.Int63n(int64(ceiling) + 1))
	if d < floor {
		d = floor
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
