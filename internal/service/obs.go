package service

import (
	"github.com/explore-by-example/aide/internal/obs"
)

// Process-wide service metrics, resolved once. Per-endpoint series are
// looked up through the registry at request time (an RWMutex read), kept
// out of the per-sample hot paths.
var (
	obsInflight        = obs.GetGauge("service.http.inflight")
	obsHTTPErrors      = obs.GetCounter("service.http.errors")
	obsConnsAccepted   = obs.GetCounter("service.http.connections_accepted")
	obsConnsOpen       = obs.GetGauge("service.http.connections_open")
	obsSampleWait      = obs.GetHistogram("service.sample_wait_seconds")
	obsSessionsCreated = obs.GetCounter("service.sessions_created")
	obsSessionsDeleted = obs.GetCounter("service.sessions_deleted")
	obsSessionsExpired = obs.GetCounter("service.sessions_expired")
	obsSessionsActive  = obs.GetGauge("service.sessions_active")
	obsSessionErrors   = obs.GetCounter("service.session_errors")

	// Fault-tolerance series.
	obsRecoveredPanics   = obs.GetCounter("aide_recovered_panics_total")
	obsSessionsRecovered = obs.GetCounter("aide_sessions_recovered_total")
	obsShedRequests      = obs.GetCounter("service.http.shed")
	obsSessionRestarts   = obs.GetCounter("service.session_restarts")
	obsQuarantined       = obs.GetCounter("service.sessions_quarantined")
)

// httpRequests returns the request counter of one endpoint.
func httpRequests(endpoint string) *obs.Counter {
	return obs.GetCounter("service.http.requests." + endpoint)
}

// httpSeconds returns the latency histogram of one endpoint.
func httpSeconds(endpoint string) *obs.Histogram {
	return obs.GetHistogram("service.http.seconds." + endpoint)
}
