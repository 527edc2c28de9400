package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"time"
)

// maxQuoteBody bounds a quote request body; generous for maxQuoteVMUs
// followers yet small enough that a hostile client cannot balloon memory.
const maxQuoteBody = 1 << 20

// quoteBodyTimeout bounds how long a quote body may take to arrive after
// its headers, so a client that trickles its body holds a handler and a
// connection no longer than this. It covers the body only: the quote
// wait that follows honors the request context instead.
const quoteBodyTimeout = 10 * time.Second

// NewHTTPServer wraps a handler (Server.Handler or Replica.Handler) in
// an http.Server with the hardening a long-running public daemon needs:
// header-read and idle timeouts so slow-loris clients cannot pin
// connections forever. Quote bodies are already bounded in size
// (maxQuoteBody) and in time (quoteBodyTimeout), and quote waits honor
// the request context, so no write timeout is imposed on legitimate slow
// learning phases.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// quoter is the shared quote surface of a primary Server and a read
// Replica — one HTTP front end serves both.
type quoter interface {
	Quote(ctx context.Context, req QuoteRequest) (QuoteResponse, error)
}

// Handler returns the server's HTTP API:
//
//	POST /v1/quote  — price one round (QuoteRequest in, QuoteResponse out)
//	GET  /v1/stats  — point-in-time Stats
//	GET  /healthz   — liveness probe
//
// Malformed or invalid requests get 400 — a body must hold exactly one
// JSON object, with nothing but white space after it — a body that
// takes longer than quoteBodyTimeout to arrive 408, and a shut-down
// server 503; quotes
// themselves honor the request context, so client disconnects stop the
// wait (not the learning — an accepted round is journaled regardless).
func (s *Server) Handler() http.Handler {
	return newQuoteMux(s, func() any { return s.Stats() })
}

// Handler returns the replica's HTTP API — the same routes as the
// primary, with ReplicaStats (including the staleness signal) at
// /v1/stats.
func (r *Replica) Handler() http.Handler {
	return newQuoteMux(r, func() any { return r.Stats() })
}

// newQuoteMux assembles the shared route set over a quote surface and a
// stats payload.
func newQuoteMux(q quoter, stats func() any) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/quote", handleQuote(q, quoteBodyTimeout))
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	return mux
}

// handleQuote serves POST /v1/quote, reading the body under a deadline
// bodyTimeout from now. A body that misses it gets 408; the deadline
// then stays, so net/http's discard of the unread rest fails at once and
// closes the connection. A decoded body clears it, because a read that
// ends at the deadline during the quote wait cancels the request's
// context. (net/http also clears it when it starts its background read
// after the body; clearing here does not depend on that.) A writer that
// cannot set deadlines serves without one.
func handleQuote(q quoter, bodyTimeout time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(time.Now().Add(bodyTimeout))
		var req QuoteRequest
		if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxQuoteBody), &req); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, os.ErrDeadlineExceeded) {
				status = http.StatusRequestTimeout
			}
			writeJSON(w, status, errorBody{Error: "decoding quote request: " + err.Error()})
			return
		}
		_ = rc.SetReadDeadline(time.Time{})
		resp, err := q.Quote(r.Context(), req)
		if err != nil {
			var reqErr *RequestError
			switch {
			case errors.As(err, &reqErr):
				writeJSON(w, http.StatusBadRequest, errorBody{Error: reqErr.Error()})
			case errors.Is(err, ErrClosed):
				writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
			default:
				writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			}
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
