// Client is the retrying counterpart of the /v1 handler set: a thin
// HTTP/JSON client for the daemon wire surface that absorbs the
// transient failures the API is designed to emit. Every 429 the server
// sends carries a Retry-After hint (writeRetryAfter); the client honors
// it, and falls back to capped exponential backoff with full jitter for
// transport errors and gateway-class statuses (502/503/504). Anything
// else — 400s, 404s, 409s — is a real answer and returns immediately as
// an *APIError.
//
// Requests are replayable by construction: the body is marshaled once
// and re-read per attempt, so a POST that sheds on the admission queue
// is retried byte-identically (submission is content-addressed, so a
// duplicate delivery is a cache hit, not a duplicate compilation).

package httpapi

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

	homunculus "repro"
)

// APIError is a non-2xx daemon response that is not worth retrying (or
// that exhausted the retry budget).
type APIError struct {
	Status  int    // HTTP status code
	Message string // decoded "error" field, or the raw body
}

func (e *APIError) Error() string {
	return fmt.Sprintf("httpapi: server returned %d: %s", e.Status, e.Message)
}

// Client talks to a homunculusd daemon with retry/backoff. The zero
// value is not usable; construct with NewClient. Fields may be adjusted
// before the first request; they must not be mutated concurrently with
// requests.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// HTTPClient issues the requests (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxAttempts bounds the total tries per request, first included
	// (default 5).
	MaxAttempts int
	// BaseDelay is the first retry's backoff before jitter (default
	// 100ms); each subsequent retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 5s). A server-provided
	// Retry-After is honored even above the cap — the server knows its
	// own queue.
	MaxDelay time.Duration
	// AttemptTimeout, when positive, bounds each individual attempt
	// (connect through body read) with its own deadline, derived from the
	// caller's context. Without it, one hung attempt consumes the whole
	// request budget before any retry fires — with it, a stalled peer
	// costs one attempt, not the request. The caller's context still
	// bounds the total: its cancellation interrupts both attempts and the
	// backoff sleeps between them.
	AttemptTimeout time.Duration

	// sleep is the backoff seam (tests shrink waits to observe them).
	sleep func(ctx context.Context, d time.Duration) error
}

// NewClient returns a Client for the daemon at baseURL with default
// retry policy.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:     strings.TrimRight(baseURL, "/"),
		HTTPClient:  http.DefaultClient,
		MaxAttempts: 5,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    5 * time.Second,
		sleep:       sleepCtx,
	}
}

// sleeper returns the backoff sleep, tolerating Clients constructed as
// struct literals (nil seam) instead of via NewClient.
func (c *Client) sleeper() func(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep
	}
	return sleepCtx
}

// httpClient tolerates struct-literal Clients the same way.
func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryable reports whether an HTTP status is a transient condition the
// API contract expects clients to retry.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff computes the pre-jitter delay for retry number n (0-based).
func (c *Client) backoff(n int) time.Duration {
	d := c.BaseDelay
	for i := 0; i < n && d < c.MaxDelay; i++ {
		d *= 2
	}
	if d > c.MaxDelay {
		d = c.MaxDelay
	}
	// Full jitter over the upper half: uniformly in [d/2, d], so
	// synchronized clients desynchronize without collapsing the wait.
	if half := int64(d / 2); half > 0 {
		d = time.Duration(half + rand.Int63n(half+1))
	}
	return d
}

// Get issues a retrying GET and decodes the 2xx body into out (out may
// be nil to discard it).
func (c *Client) Get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

// Post marshals in (nil for an empty body), issues a retrying POST, and
// decodes the 2xx body into out.
func (c *Client) Post(ctx context.Context, path string, in, out any) error {
	return c.do(ctx, http.MethodPost, path, in, out)
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("httpapi: marshal request: %w", err)
		}
	}
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	sleep := c.sleeper()
	var lastErr error
	for n := 0; n < attempts; n++ {
		if n > 0 {
			if err := sleep(ctx, c.delayFor(lastErr, n-1)); err != nil {
				return err
			}
		}
		// Each attempt gets its own deadline (when configured) derived
		// from the caller's context: a hung connection costs one attempt,
		// and a caller cancel mid-attempt or mid-backoff returns
		// immediately with ctx.Err.
		attemptCtx, cancelAttempt := ctx, context.CancelFunc(func() {})
		if c.AttemptTimeout > 0 {
			attemptCtx, cancelAttempt = context.WithTimeout(ctx, c.AttemptTimeout)
		}
		req, err := http.NewRequestWithContext(attemptCtx, method, c.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			cancelAttempt()
			return fmt.Errorf("httpapi: build request: %w", err)
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			cancelAttempt()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Transport failure (refused, reset, torn connection, or an
			// expired attempt deadline): the daemon may be restarting or
			// stalled — exactly the window retries are for.
			lastErr = &transientError{err: err}
			continue
		}
		raw, readErr := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		cancelAttempt()
		if readErr != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = &transientError{err: readErr}
			continue
		}
		if resp.StatusCode/100 == 2 {
			if out == nil || len(raw) == 0 {
				return nil
			}
			if err := json.Unmarshal(raw, out); err != nil {
				return fmt.Errorf("httpapi: decode response: %w", err)
			}
			return nil
		}
		apiErr := &APIError{Status: resp.StatusCode, Message: errorMessage(raw)}
		if !retryable(resp.StatusCode) {
			return apiErr
		}
		lastErr = &transientError{err: apiErr, retryAfter: resp.Header.Get("Retry-After")}
	}
	if te, ok := lastErr.(*transientError); ok {
		return te.err
	}
	return lastErr
}

// transientError threads the retryable failure (and its Retry-After
// hint, if any) between attempts.
type transientError struct {
	err        error
	retryAfter string
}

func (t *transientError) Error() string { return t.err.Error() }

// delayFor resolves the wait before the next attempt: the server's
// Retry-After when the last failure carried one, jittered backoff
// otherwise.
func (c *Client) delayFor(lastErr error, n int) time.Duration {
	if te, ok := lastErr.(*transientError); ok && te.retryAfter != "" {
		if secs, err := strconv.Atoi(te.retryAfter); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return c.backoff(n)
}

// errorMessage extracts the wire error field, falling back to the raw
// body.
func errorMessage(raw []byte) string {
	var e errorJSON
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}

// SubmitJob submits a compilation and returns the accepted job
// snapshot. Identical submissions are content-addressed server-side, so
// a retried (duplicately delivered) submit coalesces instead of
// compiling twice.
func (c *Client) SubmitJob(ctx context.Context, req SubmitRequest) (JobJSON, error) {
	var job JobJSON
	err := c.Post(ctx, "/v1/jobs", req, &job)
	return job, err
}

// Job fetches one job's status snapshot (includeCode asks for the
// generated sources in the result).
func (c *Client) Job(ctx context.Context, id string, includeCode bool) (JobJSON, error) {
	path := "/v1/jobs/" + id
	if includeCode {
		path += "?include=code"
	}
	var job JobJSON
	err := c.Get(ctx, path, &job)
	return job, err
}

// WaitJob polls a job until it reaches a terminal state (done, failed,
// or cancelled), at the given interval, returning the terminal
// snapshot. The context bounds the wait.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (JobJSON, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	for {
		job, err := c.Job(ctx, id, false)
		if err != nil {
			return job, err
		}
		switch job.State {
		case homunculus.JobDone, homunculus.JobFailed, homunculus.JobCancelled:
			return job, nil
		}
		if err := c.sleeper()(ctx, poll); err != nil {
			return job, err
		}
	}
}

// ClassifyEndpoint classifies a feature batch through a named endpoint.
// A fully shed batch is a 429 the retry policy absorbs; what returns is
// either a delivered (possibly partially shed) batch or a terminal
// error.
func (c *Client) ClassifyEndpoint(ctx context.Context, name string, features [][]float64) (ClassifyResponse, error) {
	var resp ClassifyResponse
	err := c.Post(ctx, "/v1/endpoints/"+name+"/classify", ClassifyRequest{Features: features}, &resp)
	return resp, err
}

// EndpointRawStats fetches an endpoint's mergeable wire stats
// (?scope=raw): counters plus the log2 latency histogram.
func (c *Client) EndpointRawStats(ctx context.Context, name string) (homunculus.RawServingStats, error) {
	var out homunculus.RawServingStats
	err := c.Get(ctx, "/v1/endpoints/"+name+"/stats?scope=raw", &out)
	return out, err
}

// EndpointClusterStats fetches an endpoint's cluster-merged stats
// (?scope=cluster) from a cluster-mode daemon.
func (c *Client) EndpointClusterStats(ctx context.Context, name string) (ClusterStatsJSON, error) {
	var out ClusterStatsJSON
	err := c.Get(ctx, "/v1/endpoints/"+name+"/stats?scope=cluster", &out)
	return out, err
}

// ClusterStatus fetches the node + peer table and fabric counters
// (GET /v1/cluster) from a cluster-mode daemon.
func (c *Client) ClusterStatus(ctx context.Context) (ClusterStatusJSON, error) {
	var out ClusterStatusJSON
	err := c.Get(ctx, "/v1/cluster", &out)
	return out, err
}
