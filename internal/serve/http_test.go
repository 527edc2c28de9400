package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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

// slowQuoter delays every quote by wait before passing it on, giving up
// early only when the request context ends.
type slowQuoter struct {
	s    *serve.Server
	wait time.Duration
}

func (q slowQuoter) Quote(ctx context.Context, req serve.QuoteRequest) (serve.QuoteResponse, error) {
	select {
	case <-time.After(q.wait):
		return q.s.Quote(ctx, req)
	case <-ctx.Done():
		return serve.QuoteResponse{}, ctx.Err()
	}
}

// TestHTTPQuoteBodyDeadline trickles a quote body, one byte every 40 ms,
// past a body deadline shortened to 300 ms, while a normal quote goes
// through on another connection. The trickler must get 408 and its
// round must never reach the journal. The normal quote must be served
// although its wait (held at 700 ms) outlasts the deadline: a deadline
// still in force during the wait ends a read on the connection, which
// cancels the request's context.
func TestHTTPQuoteBodyDeadline(t *testing.T) {
	s := mustOpen(t, testConfig(t.TempDir()))
	defer s.Close()
	ts := httptest.NewServer(serve.QuoteHandler(slowQuoter{s, 700 * time.Millisecond}, 300*time.Millisecond))
	defer ts.Close()

	body := `{"vmus":[{"id":0,"alpha":7,"data_mb":150}],"distance_m":400}`
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /v1/quote HTTP/1.1\r\nHost: vtmig\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%c", len(body), body[0]); err != nil {
		t.Fatal(err)
	}
	trickled := make(chan struct{})
	go func() {
		defer close(trickled)
		for i := 1; i < len(body); i++ {
			time.Sleep(40 * time.Millisecond)
			if _, err := conn.Write([]byte{body[i]}); err != nil {
				return // the server gave up on the body and closed the connection
			}
		}
	}()
	// The response is read as it arrives: the server resets the
	// connection once it closes it with trickled bytes unread.
	type reply struct {
		status int
		err    error
	}
	replied := make(chan reply, 1)
	go func() {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			replied <- reply{err: err}
			return
		}
		resp.Body.Close()
		replied <- reply{status: resp.StatusCode}
	}()

	resp, err := http.Post(ts.URL+"/v1/quote", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("concurrent normal quote status = %d", resp.StatusCode)
	}
	if r := <-replied; r.err != nil || r.status != http.StatusRequestTimeout {
		t.Fatalf("trickled quote: status %d, error %v; want %d", r.status, r.err, http.StatusRequestTimeout)
	}
	conn.Close()
	<-trickled
	if st := s.Stats(); st.Rounds != 1 || st.JournalEntries != 1 {
		t.Fatalf("stats %+v, want only the normal quote's round journaled", st)
	}
}
