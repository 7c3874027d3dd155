package server

// HTTP surface tests: submit/status/list/cancel round-trips through
// the real mux, SSE stream delivery, and error-code mapping.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, ts *httptest.Server, cfg JobConfig) JobStatus {
	t.Helper()
	body, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s = %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHTTPSubmitStatusList(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	st := postJob(t, ts, smallJob(21))
	if st.ID == "" || st.Mode != ModeMultiple {
		t.Fatalf("submit status: %+v", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		st = getStatus(t, ts, st.ID)
	}
	if st.State != StateDone || st.Result == nil || len(st.Result.Verdicts) == 0 {
		t.Fatalf("final status: %+v", st)
	}

	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list: %+v", list)
	}
}

func TestHTTPStream(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	st := postJob(t, ts, slowJob(22))
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	// The stream must deliver a snapshot, at least one round event,
	// and a terminal state event before closing.
	var sawSnapshot, sawRound, sawTerminal bool
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		switch ev.Type {
		case "snapshot":
			sawSnapshot = true
		case "round":
			sawRound = true
		case "state":
			if ev.State.Terminal() {
				sawTerminal = true
			}
		}
	}
	if !sawSnapshot || !sawRound || !sawTerminal {
		t.Fatalf("stream saw snapshot=%v round=%v terminal=%v", sawSnapshot, sawRound, sawTerminal)
	}
	if st := getStatus(t, ts, st.ID); st.State != StateDone {
		t.Fatalf("after stream end: %s (%s)", st.State, st.Error)
	}
}

func TestHTTPCancel(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	st := postJob(t, ts, slowJob(23))
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	final := waitTerminal(t, e, st.ID)
	if final.State != StateCancelled && final.State != StateDone {
		t.Fatalf("after cancel: %s", final.State)
	}
}

// TestWriteErrorCodes checks the error→status mapping directly — in
// particular that unrecognized (internal) errors report as 500s, not
// client faults.
func TestWriteErrorCodes(t *testing.T) {
	cases := []struct {
		err  error
		code int
	}{
		{errors.New("server: persist job meta: disk full"), http.StatusInternalServerError},
		{badConfig("tau must be positive"), http.StatusBadRequest},
		{fmt.Errorf("job-000042: %w", ErrNotFound), http.StatusNotFound},
		{fmt.Errorf("%w: tenant %q", ErrTenantBudget, "acme"), http.StatusTooManyRequests},
		{ErrClosed, http.StatusServiceUnavailable},
		// Every sentinel must keep matching through wrapping — the
		// cvglint sentinelerr rule bans the raw == that would silently
		// break these mappings — including a double-wrapped chain.
		{fmt.Errorf("normalize: %w", ErrInvalidConfig), http.StatusBadRequest},
		{fmt.Errorf("shutting down: %w", ErrClosed), http.StatusServiceUnavailable},
		{fmt.Errorf("submit: %w", fmt.Errorf("tenant acme: %w", ErrTenantBudget)), http.StatusTooManyRequests},
		// An oversize body is a decode failure too, but 413, not 400.
		{fmt.Errorf("%w: decode: %w", ErrInvalidConfig, &http.MaxBytesError{Limit: maxSubmitBytes}), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeError(rec, tc.err)
		if rec.Code != tc.code {
			t.Errorf("writeError(%v) = %d, want %d", tc.err, rec.Code, tc.code)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, TenantMaxHITs: 1})
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		do   func() (*http.Response, error)
		code int
	}{
		{"bad config", func() (*http.Response, error) {
			return http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"mode":"bogus","dataset":{"n":10}}`))
		}, http.StatusBadRequest},
		{"unknown field", func() (*http.Response, error) {
			return http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"bogus_field":1}`))
		}, http.StatusBadRequest},
		{"unknown job", func() (*http.Response, error) {
			return http.Get(ts.URL + "/jobs/job-999999")
		}, http.StatusNotFound},
		{"unknown stream", func() (*http.Response, error) {
			return http.Get(ts.URL + "/jobs/job-999999/stream")
		}, http.StatusNotFound},
		{"cancel unknown", func() (*http.Response, error) {
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/job-999999", nil)
			if err != nil {
				return nil, err
			}
			return http.DefaultClient.Do(req)
		}, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := tc.do()
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.code)
			}
		})
	}

	// An oversize body is refused with 413 before it is decoded, and
	// no job is created.
	before := len(e.List())
	huge := `{"tenant":"` + strings.Repeat("a", maxSubmitBytes) + `"}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize submit = %d, want 413", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listed []JobStatus
	err = json.NewDecoder(resp.Body).Decode(&listed)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != before {
		t.Fatalf("GET /jobs lists %d jobs after an oversize submit, want %d", len(listed), before)
	}

	// Tenant exhaustion maps to 429: burn the 1-HIT tenant cap, then
	// the next submission is refused.
	first := postJob(t, ts, smallJob(31))
	waitTerminal(t, e, first.ID)
	body, _ := json.Marshal(smallJob(32))
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted tenant submit = %d, want 429", resp.StatusCode)
	}
}
