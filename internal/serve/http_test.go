package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vtmig/internal/serve"
)

func TestHTTPQuoteStatsHealth(t *testing.T) {
	s := mustOpen(t, testConfig(t.TempDir()))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"vmus":[{"id":0,"alpha":7,"data_mb":150},{"id":1,"alpha":12,"data_mb":220}],"distance_m":400}`
	resp, err := http.Post(ts.URL+"/v1/quote", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quote status = %d", resp.StatusCode)
	}
	var q serve.QuoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if q.Round != 1 || q.Price < 5 || q.Price > 50 {
		t.Fatalf("quote response %+v", q)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 1 || st.JournalEntries != 1 {
		t.Fatalf("stats %+v, want rounds=1 journal_entries=1", st)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}

func TestHTTPQuoteErrors(t *testing.T) {
	s := mustOpen(t, testConfig(t.TempDir()))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/quote", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`not json`); code != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d", code)
	}
	if code := post(`{"vmus":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty VMUs status = %d", code)
	}
	if code := post(`{"vmus":[{"id":0,"alpha":7,"data_mb":150}],"bogus":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d", code)
	}
	if code := post(`{"vmus":[{"id":0,"alpha":-7,"data_mb":150}]}`); code != http.StatusBadRequest {
		t.Fatalf("invalid game status = %d", code)
	}
	if code := post(`{"vmus":[{"id":0,"alpha":7,"data_mb":150}]} trailing-garbage`); code != http.StatusBadRequest {
		t.Fatalf("trailing bytes status = %d", code)
	}
	if code := post(`{"vmus":[{"id":0,"alpha":7,"data_mb":150}]}{"vmus":[{"id":1,"alpha":9,"data_mb":120}]}`); code != http.StatusBadRequest {
		t.Fatalf("two concatenated requests status = %d", code)
	}
	if code := post(`{"vmus":[{"id":0,"alpha":7,"data_mb":150}]} }`); code != http.StatusBadRequest {
		t.Fatalf("stray closing brace status = %d", code)
	}
	// None of the rejected bodies may have reached the learner.
	if st := s.Stats(); st.Rounds != 0 {
		t.Fatalf("rejected bodies advanced the learner to %d rounds", st.Rounds)
	}

	// GET on the quote route is not part of the API.
	resp, err := http.Get(ts.URL + "/v1/quote")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/quote status = %d", resp.StatusCode)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if code := post(`{"vmus":[{"id":0,"alpha":7,"data_mb":150}]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("quote after Close status = %d", code)
	}
}
