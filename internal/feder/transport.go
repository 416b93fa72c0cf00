package feder

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// ErrBreakerOpen is returned (wrapped in a *PeerError) when a call is
// rejected locally because the peer's circuit breaker is open.
var ErrBreakerOpen = errors.New("circuit breaker open")

// PeerError is a typed failure talking to one peer mediator. Status is
// the HTTP status (0 for transport-level failures), Code the structured
// wire error code when the peer sent one.
type PeerError struct {
	Peer   string
	Op     string
	Status int
	Code   string
	Err    error

	// RetryHint carries the peer's Retry-After, when it sent one.
	RetryHint    time.Duration
	HasRetryHint bool
}

func (e *PeerError) Error() string {
	msg := fmt.Sprintf("peer %s: %s", e.Peer, e.Op)
	if e.Status != 0 {
		msg += fmt.Sprintf(": HTTP %d", e.Status)
	}
	if e.Code != "" {
		msg += fmt.Sprintf(" (%s)", e.Code)
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *PeerError) Unwrap() error { return e.Err }

// BackoffDelay computes the exponential-backoff-with-jitter delay before
// retry attempt (0-based): base·2^attempt plus up to one base of jitter,
// capped at max. jitter returns a uniform [0,1) sample; nil means no
// jitter (deterministic tests).
func BackoffDelay(attempt int, base, max time.Duration, jitter func() float64) time.Duration {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if jitter != nil {
		d += time.Duration(jitter() * float64(base))
	}
	if d > max {
		d = max
	}
	return d
}

// RetryAfter parses a Retry-After header as delay seconds (the only form
// the muppet daemon emits). Absent or malformed headers yield 0, false.
func RetryAfter(h http.Header) (time.Duration, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// PeerClient is the coordinator's handle on one peer mediator: an HTTP
// client with bounded retries, exponential backoff with jitter honoring
// Retry-After, and a circuit breaker.
type PeerClient struct {
	Name    string // party name the peer claims
	BaseURL string // e.g. http://127.0.0.1:7001

	HTTP        *http.Client
	Retries     int           // retry attempts after the first call
	BackoffBase time.Duration // first retry delay
	BackoffMax  time.Duration
	Breaker     *Breaker

	// OnRetry is invoked before each retry sleep (metrics hook).
	OnRetry func(peer string)

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewPeerClient builds a client with the given robustness parameters.
// seed fixes the jitter stream for reproducible tests.
func NewPeerClient(name, baseURL string, retries int, breaker *Breaker, seed int64) *PeerClient {
	return &PeerClient{
		Name:        name,
		BaseURL:     baseURL,
		HTTP:        &http.Client{},
		Retries:     retries,
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  2 * time.Second,
		Breaker:     breaker,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

func (c *PeerClient) jitter() float64 {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.rng.Float64()
}

// retryable reports whether a failed attempt is worth repeating:
// transport errors, admission pushback (429), and server-side failures
// (5xx). Protocol-level rejections (other 4xx) are not.
func retryable(status int) bool {
	return status == 0 || status == http.StatusTooManyRequests || status >= 500
}

// Call POSTs one protocol message to the peer's /fed/<op> endpoint and
// decodes the JSON reply into out. It retries retryable failures up to
// c.Retries times, sleeping an exponential backoff with jitter between
// attempts (at least the peer's Retry-After, when given), all capped by
// ctx's deadline. The circuit breaker is consulted once per attempt.
func (c *PeerClient) Call(ctx context.Context, op string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return &PeerError{Peer: c.Name, Op: op, Err: err}
	}

	var last *PeerError
	for attempt := 0; ; attempt++ {
		if c.Breaker != nil && !c.Breaker.Allow() {
			return &PeerError{Peer: c.Name, Op: op, Code: "breaker-open", Err: ErrBreakerOpen}
		}
		perr := c.attempt(ctx, op, body, out)
		if perr == nil {
			if c.Breaker != nil {
				c.Breaker.Report(true)
			}
			return nil
		}
		// 4xx means the peer is alive and answering; only transport
		// failures and 5xx count against the breaker.
		if c.Breaker != nil {
			c.Breaker.Report(perr.Status != 0 && perr.Status < 500)
		}
		last = perr
		if attempt >= c.Retries || !retryable(perr.Status) {
			return last
		}
		delay := BackoffDelay(attempt, c.BackoffBase, c.BackoffMax, c.jitter)
		if perr.HasRetryHint && perr.RetryHint > delay {
			delay = perr.RetryHint
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < delay {
			return last // the deadline caps the retry budget
		}
		if c.OnRetry != nil {
			c.OnRetry(c.Name)
		}
		select {
		case <-ctx.Done():
			return last
		case <-time.After(delay):
		}
	}
}

func (c *PeerClient) attempt(ctx context.Context, op string, body []byte, out any) *PeerError {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/fed/"+op, bytes.NewReader(body))
	if err != nil {
		return &PeerError{Peer: c.Name, Op: op, Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return &PeerError{Peer: c.Name, Op: op, Err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return &PeerError{Peer: c.Name, Op: op, Status: resp.StatusCode, Err: err}
	}
	if resp.StatusCode != http.StatusOK {
		perr := &PeerError{Peer: c.Name, Op: op, Status: resp.StatusCode}
		var we WireError
		if json.Unmarshal(raw, &we) == nil && we.Error != "" {
			perr.Code = we.Code
			perr.Err = errors.New(we.Error)
		}
		if ra, ok := RetryAfter(resp.Header); ok {
			perr.RetryHint, perr.HasRetryHint = ra, true
		}
		return perr
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return &PeerError{Peer: c.Name, Op: op, Status: resp.StatusCode, Err: fmt.Errorf("decoding reply: %w", err)}
		}
	}
	return nil
}
