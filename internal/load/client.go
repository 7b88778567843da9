package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/simrand"
)

// Counts tallies a replay's outcomes, one per logical request, or per
// item of a batched one. The tool classifies each final answer; Post
// counts transport errors and the Retry-After outcome.
type Counts struct {
	OK     int // answered 200
	Shed   int // answered 429, after any retries
	Errors int // transport errors and answers the tool could not use
	// Retried counts requests that succeeded only after one or more
	// Retry-After waits; Abandoned counts those that waited and still
	// got no 200, in practice shed again when the retry budget ran out.
	Retried, Abandoned int
	// FirstError samples the first error for diagnostics.
	FirstError string
}

// Fail counts n errors, keeping the first error's message.
func (c *Counts) Fail(n int, err error) {
	c.Errors += n
	if c.FirstError == "" {
		c.FirstError = err.Error()
	}
}

// Merge folds another client's counts into c.
func (c *Counts) Merge(o Counts) {
	c.OK += o.OK
	c.Shed += o.Shed
	c.Errors += o.Errors
	c.Retried += o.Retried
	c.Abandoned += o.Abandoned
	if c.FirstError == "" {
		c.FirstError = o.FirstError
	}
}

// Backoff is the report line for the Retry-After outcome of a replay
// that re-sent each 429 up to retries times.
func (c Counts) Backoff(retries int) string {
	return fmt.Sprintf("429 backoff: %d recovered by Retry-After waits, %d abandoned after %d retries",
		c.Retried, c.Abandoned, retries)
}

// retryAfterCap bounds how long a load client honors a Retry-After
// hint: servers hint in whole seconds, which would stall a
// compressed-time replay far past the shed window it describes.
const retryAfterCap = 300 * time.Millisecond

// RetryDelay is the client half of ring.WriteError's hint: the wait
// before re-sending a shed request — the 429's Retry-After, capped,
// then jittered uniformly in [0.5x, 1.5x] from the client's seeded
// stream so retries from many clients decorrelate.
func RetryDelay(resp *http.Response, rng *simrand.Source) time.Duration {
	hint := time.Second
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec >= 0 {
		hint = time.Duration(sec) * time.Second
	}
	return time.Duration(float64(min(hint, retryAfterCap)) * (0.5 + rng.Float64()))
}

// Post sends body to url as one logical request of n items and returns
// the final answer's status and body. A 429 is re-sent up to retries
// times, each after a RetryDelay drawn from rng. A transport error
// counts n errors in c and is returned.
func Post(client *http.Client, url, contentType string, body []byte, n, retries int, rng *simrand.Source, c *Counts) (int, []byte, error) {
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			c.Fail(n, err)
			return 0, nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			c.Fail(n, err)
			return 0, nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < retries {
			time.Sleep(RetryDelay(resp, rng))
			continue
		}
		if attempt > 0 {
			if resp.StatusCode == http.StatusOK {
				c.Retried += n
			} else {
				c.Abandoned += n
			}
		}
		return resp.StatusCode, raw, nil
	}
}

// Get fetches url and returns the body of its 200 answer, decoding it
// as JSON into v unless v is nil.
func Get(client *http.Client, url string, v any) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return nil, fmt.Errorf("GET %s: %w", url, err)
		}
	}
	return body, nil
}
