package service

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"time"
)

// requestIDKey is the context key the middleware stores request ids
// under.
type requestIDKey struct{}

// RequestIDFrom returns the request id the middleware assigned, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// statusWriter captures the response status code for logging/metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// wrapStatus returns w as a statusWriter, wrapping it unless an outer
// layer already did: middleware and ServeHTTP share one per request.
func wrapStatus(w http.ResponseWriter) *statusWriter {
	if sw, ok := w.(*statusWriter); ok {
		return sw
	}
	return &statusWriter{ResponseWriter: w, status: http.StatusOK}
}

// Flush forwards to the underlying writer so long-poll responses stream.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// WithRecovery wraps next so a panicking handler answers 500 — with the
// request ID for correlation — instead of killing the connection and,
// under http.Serve's default recover, hiding the failure from the
// client. The server process stays alive; the panic is logged with its
// stack and counted in aide_recovered_panics_total.
func WithRecovery(logger *slog.Logger, next http.Handler) http.Handler {
	if logger == nil {
		logger = slog.Default()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := wrapStatus(w)
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			obsRecoveredPanics.Inc()
			logger.LogAttrs(r.Context(), slog.LevelError, "panic in handler",
				slog.String("request_id", RequestIDFrom(r.Context())),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("panic", fmt.Sprint(rec)),
				slog.String("stack", string(debug.Stack())),
			)
			// The handler may have started writing; WriteHeader on an
			// already-written response is a no-op plus a log line, which
			// beats a torn connection.
			httpErrorCtx(sw, r, http.StatusInternalServerError, "internal error")
		}()
		next.ServeHTTP(sw, r)
	})
}

// WithDeadline attaches a per-request deadline to every request's
// context. Handlers observe it through r.Context() — the long-poll
// sample endpoint returns 408, engine scans bound to a request context
// stop at the next chunk boundary. A non-positive d disables the
// deadline.
func WithDeadline(d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// WithRequestLog wraps next with request-ID assignment and structured
// request logging. Each request gets an id — taken from an incoming
// X-Request-ID header or freshly generated — which is echoed in the
// response header, stored in the request context, and attached to the
// completion log line together with method, path, status and duration.
func WithRequestLog(logger *slog.Logger, next http.Handler) http.Handler {
	if logger == nil {
		logger = slog.Default()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newID()
		}
		w.Header().Set("X-Request-ID", id)
		sw := wrapStatus(w)
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
		logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", time.Since(start)),
			slog.String("remote", r.RemoteAddr),
		)
	})
}

// ConnState is an http.Server.ConnState hook feeding
// service.http.connections_accepted and _open: requests per connection
// accepted says whether clients keep their connections alive.
func ConnState(_ net.Conn, state http.ConnState) {
	switch state {
	case http.StateNew:
		obsConnsAccepted.Inc()
		obsConnsOpen.Add(1)
	case http.StateHijacked, http.StateClosed:
		obsConnsOpen.Add(-1)
	}
}
