package svc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nimbus/internal/runner"
)

// APIError is a non-2xx daemon response: the status code, the path that
// produced it, the server's error message (when the body carried one),
// and a truncated copy of the raw body. Retry logic inspects it — 429
// means "come back after RetryAfter", a 404 after a restart means the
// daemon lost the job — and so can callers, via errors.As.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Path is the request path that failed.
	Path string
	// Message is the server's error document's "error" field, if any.
	Message string
	// Body is the raw response body, truncated to 4 KiB.
	Body string
	// RetryAfter is the parsed Retry-After header (0 if absent): how long
	// the daemon asked us to back off. Set on load-shed 429s.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("svc: %s: %s (HTTP %d)", e.Path, e.Message, e.Status)
	}
	return fmt.Sprintf("svc: %s: HTTP %d", e.Path, e.Status)
}

// Retry configures the client's backoff on failed requests. The zero
// value disables retries (one attempt, fail fast) — existing callers and
// tests keep their old semantics; resilient callers set DefaultRetry.
type Retry struct {
	// Attempts is the total number of tries, including the first.
	// <= 1 disables retrying.
	Attempts int
	// Base is the first backoff delay; each retry doubles it.
	Base time.Duration
	// Max caps the backoff delay (and doubles as the cap on honoring a
	// server-supplied Retry-After).
	Max time.Duration
}

// DefaultRetry is the backoff nimbus-bench -remote uses: five attempts,
// exponential from 200ms, capped at 5s, with jitter. Worst case ~10s of
// retrying — enough to ride out a daemon restart, short enough that a
// genuinely dead daemon fails the run promptly.
var DefaultRetry = Retry{Attempts: 5, Base: 200 * time.Millisecond, Max: 5 * time.Second}

// Client is the typed consumer of a nimbus-svc daemon. The zero HTTP
// client is usable; Base is the daemon's root URL ("http://host:port").
// nimbus-bench -remote runs entirely through it, which is the proof that
// the daemon and the batch CLIs produce identical results.
//
// With Retry set, the client self-heals: idempotent calls back off
// exponentially (with jitter) on transport errors and load-shed 429s,
// honor Retry-After, and StreamEvents resumes a dropped stream from the
// last progress line it delivered — so a sweep rides through a daemon
// restart without dropping or duplicating output.
type Client struct {
	Base  string
	HTTP  *http.Client
	Retry Retry
}

// NewClient returns a client for the daemon at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// retryable reports whether err is worth another attempt of method.
//
//   - A 429 retries regardless of method: the daemon shed the request, so
//     it had no effect.
//   - Other API errors are the daemon answering authoritatively (404, 400)
//     — retrying cannot change the answer.
//   - Transport errors retry for idempotent methods (GET, DELETE). A POST
//     retries only on connection-refused, where the request provably never
//     reached the daemon; any other mid-flight failure could mean the job
//     was created and retrying would submit it twice.
func retryable(method string, err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status == http.StatusTooManyRequests
	}
	if method == http.MethodGet || method == http.MethodDelete {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// backoff sleeps before retry attempt (0-based), honoring ctx. The delay
// doubles per attempt from Base, capped at Max, then jittered to
// [d/2, d) so a fleet of clients shed by the same daemon does not return
// in lockstep. A server-supplied Retry-After (floored at Base, capped at
// Max) wins when longer.
func (c *Client) backoff(ctx context.Context, attempt int, err error) error {
	d := c.Retry.Base
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	for i := 0; i < attempt && d < c.Retry.Max; i++ {
		d *= 2
	}
	if c.Retry.Max > 0 && d > c.Retry.Max {
		d = c.Retry.Max
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfter > d {
		d = apiErr.RetryAfter
		if c.Retry.Max > 0 && d > c.Retry.Max {
			d = c.Retry.Max
		}
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

// do issues a request and decodes the JSON response into out, retrying
// per c.Retry. A nil out discards the body; a *[]byte out receives the
// body's bytes as sent. Non-2xx responses surface as *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = b
	}
	attempts := c.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if werr := c.backoff(ctx, attempt-1, err); werr != nil {
				return werr
			}
		}
		err = c.doOnce(ctx, method, path, payload, out)
		if err == nil || ctx.Err() != nil || !retryable(method, err) {
			return err
		}
	}
	return err
}

func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, out any) error {
	resp, err := c.open(ctx, method, path, "", payload)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch out := out.(type) {
	case nil:
		// Drain so the connection is reusable; the body is small (a JSON
		// document) on every route used with out == nil.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return nil
	case *[]byte:
		*out, err = io.ReadAll(resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// open sends one request for path (query, if any, is appended to the URL
// but not to an error's Path) with payload as its JSON body. A 2xx
// response comes back for the caller to read and close; any other is
// consumed, closed and returned as *APIError.
func (c *Client) open(ctx context.Context, method, path, query string, payload []byte) (*http.Response, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path+query, rd)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, apiError(resp, path)
	}
	return resp, nil
}

// apiError converts a non-2xx response into an *APIError, consuming (a
// bounded prefix of) the body. The caller still owns closing the body.
func apiError(resp *http.Response, path string) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	e := &APIError{Status: resp.StatusCode, Path: path, Body: string(b)}
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &doc) == nil {
		e.Message = doc.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// Submit posts a sweep grid and returns the created job. workers 0 uses
// the daemon's default pool size. Submit retries only failures where the
// job provably does not exist (connection refused, load-shed 429) — a
// mid-flight transport error is surfaced, never blindly retried, so a
// sweep is never submitted twice.
func (c *Client) Submit(ctx context.Context, g runner.Grid, workers int) (JobCreated, error) {
	var created JobCreated
	err := c.do(ctx, http.MethodPost, "/jobs", JobRequest{Grid: g, Workers: workers}, &created)
	return created, err
}

// Status fetches a job's status document.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st)
	return st, err
}

// StreamEvents copies the job's progress lines to w as they happen,
// returning when the job completes (or ctx ends). The lines are the ones
// runner.Progress would print locally, tagged with each cell's cache
// outcome.
//
// With Retry set the stream self-heals: only complete lines are written
// to w, the client counts them, and when the connection drops (daemon
// restart, network blip) it reconnects with ?from=<count> so the daemon
// skips what was already delivered. The consumer sees each progress line
// exactly once, across any number of reconnects.
func (c *Client) StreamEvents(ctx context.Context, id string, w io.Writer) error {
	attempts := c.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	delivered := 0
	failures := 0
	var err error
	for {
		var n int
		n, err = c.streamOnce(ctx, id, delivered, w)
		delivered += n
		if err == nil {
			// Clean end of stream. The daemon ends the stream at a terminal
			// state — but a crashing daemon can also close the socket after
			// a complete line, which is indistinguishable here. Trust the
			// status document, not the EOF.
			st, serr := c.Status(ctx, id)
			if serr == nil && st.State != JobRunning {
				return nil
			}
			if serr != nil {
				err = serr
			} else {
				err = fmt.Errorf("svc: event stream ended but job %s still %s", id, st.State)
			}
		}
		if ctx.Err() != nil {
			return err
		}
		if n > 0 {
			failures = 0 // the connection made progress; reset the budget
		}
		failures++
		if failures >= attempts || !retryable(http.MethodGet, err) {
			return err
		}
		if werr := c.backoff(ctx, failures-1, err); werr != nil {
			return werr
		}
	}
}

// streamOnce runs one /events connection, emitting only complete lines
// to w from line offset `from`, and returns how many lines it delivered.
// A partial trailing line (the connection died mid-line) is discarded —
// the reconnect re-fetches it whole.
func (c *Client) streamOnce(ctx context.Context, id string, from int, w io.Writer) (int, error) {
	query := ""
	if from > 0 {
		query = "?from=" + strconv.Itoa(from)
	}
	resp, err := c.open(ctx, http.MethodGet, "/jobs/"+id+"/events", query, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n := 0
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if strings.HasSuffix(line, "\n") {
			if _, werr := io.WriteString(w, line); werr != nil {
				return n, werr
			}
			n++
		}
		if err != nil {
			if err == io.EOF {
				return n, nil
			}
			return n, err
		}
	}
}

// RawResults blocks until the job completes and returns the results
// document exactly as the daemon emitted it. Callers that persist results
// write these bytes verbatim: the daemon's rows come from the
// runner.EncodeRow behind the batch CLIs' runner.WriteJSON, joined by the
// same runner.WriteRows, so saved remote results are byte-comparable to
// local ones. Retries (idempotent GET) per c.Retry.
func (c *Client) RawResults(ctx context.Context, id string) ([]byte, error) {
	var b []byte
	if err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/results", nil, &b); err != nil {
		return nil, err
	}
	return b, nil
}

// Results is RawResults decoded into result rows.
func (c *Client) Results(ctx context.Context, id string) ([]runner.Result, error) {
	b, err := c.RawResults(ctx, id)
	if err != nil {
		return nil, err
	}
	var rs []runner.Result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("svc: decoding results: %w", err)
	}
	return rs, nil
}

// Cancel asks the daemon to stop a job; cells not yet started will not
// run.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, &st)
	return st, err
}

// Metrics fetches the daemon-wide observability document.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &m)
	return m, err
}
