package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzServerRequests feeds arbitrary JSON bodies to session creation —
// every service parameter a session takes — and to labeling, through the
// real handler: each answer must be a 4xx or a valid success, never a
// panic or a 5xx. A created session is asked for its first sample, so
// the label lands on a session with a sample outstanding, then deleted.
// Seeds carrying the retired "workers" field stay: older clients may
// still send it, and it must be ignored.
func FuzzServerRequests(f *testing.F) {
	srv, _ := newTestServer(f)
	srv.SampleWait = 2 * time.Second
	for _, seed := range []struct{ create, label string }{
		{`{"view":"uniform","seed":7,"samples_per_iteration":5}`, `{"row":0,"relevant":true}`},
		{`{"view":"uniform","seed":3,"discovery":"clustering","workers":2,"max_iterations":3}`, `{"row":1,"relevant":false}`},
		{`{"view":"uniform","discovery":"hybrid","distance_hint":4.5,"conflict_policy":"strict"}`, `{"row":-1}`},
		{`{"view":"uniform","max_labeled_rows":2,"max_iteration_millis":50,"max_samples_per_iteration":3,"max_tree_nodes":5,"max_mem_bytes":1048576,"cache_bytes":65536}`, `{}`},
		{`{"view":"nope"}`, `{"row":"x"}`},
		{`{"view":"uniform","discovery":"spiral"}`, `not json`},
		{`{"view":"uniform","conflict_policy":"coin-flip"}`, ``},
		{`{"view":"uniform","samples_per_iteration":-4,"workers":-1,"max_iterations":-9,"distance_hint":-1}`, `{"row":9999999999}`},
		{`[`, `{"row":0,"relevant":true,"extra":[1,2]}`},
		{`{"view":"uniform","workers":100000000,"samples_per_iteration":1000000000,"max_iterations":1000000000000,"cache_bytes":1000000000000000000}`, `{"row":0}`},
		{`{"view":"uniform","discovery":"clustering","distance_hint":1e-300,"max_iteration_millis":-1,"max_tree_nodes":-1,"max_mem_bytes":-5,"max_labeled_rows":-3}`, `{"row":0}`},
		{`{"view":"uniform","discovery":"hybrid","distance_hint":1e300,"max_samples_per_iteration":-7}`, `{"row":0}`},
	} {
		f.Add([]byte(seed.create), []byte(seed.label))
	}
	f.Fuzz(func(t *testing.T, create, label []byte) {
		rec := serveFuzz(t, srv, http.MethodPost, "/v1/sessions", create)
		if rec.Code != http.StatusCreated {
			// A refused create leaves no session; a label for one that does
			// not exist must be refused too.
			serveFuzz(t, srv, http.MethodPost, "/v1/sessions/missing/label", label)
			return
		}
		var resp CreateSessionResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.ID == "" {
			t.Fatalf("create answered %d with %q", rec.Code, rec.Body.String())
		}
		defer serveFuzz(t, srv, http.MethodDelete, "/v1/sessions/"+resp.ID, nil)
		serveFuzz(t, srv, http.MethodGet, "/v1/sessions/"+resp.ID+"/sample", nil)
		serveFuzz(t, srv, http.MethodPost, "/v1/sessions/"+resp.ID+"/label", label)
		serveFuzz(t, srv, http.MethodGet, "/v1/sessions/"+resp.ID+"/status", nil)
	})
}

// serveFuzz sends one request through the server's handler and fails on
// a 5xx or on a success whose body is not JSON.
func serveFuzz(t *testing.T, srv *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code >= 500 {
		t.Fatalf("%s %s %q: answered %d: %s", method, path, body, rec.Code, rec.Body.String())
	}
	if rec.Code < 300 && !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("%s %s %q: answered %d with a body that is not JSON: %q", method, path, body, rec.Code, rec.Body.String())
	}
	return rec
}
