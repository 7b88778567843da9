package load

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simrand"
)

// shedFirst answers 429 with the given Retry-After hint to the first
// shed requests, then 200 "ok"; it counts every request it sees.
func shedFirst(t *testing.T, shed int32, retryAfter string) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var seen atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) <= shed {
			w.Header().Set("Retry-After", retryAfter)
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok"))
	}))
	t.Cleanup(ts.Close)
	return ts, &seen
}

func TestPostRetriesAfterShed(t *testing.T) {
	ts, seen := shedFirst(t, 1, "1")
	var c Counts
	start := time.Now()
	status, body, err := Post(ts.Client(), ts.URL, "text/plain", []byte("x"), 3, 2, simrand.New(1), &c)
	waited := time.Since(start)
	if err != nil || status != http.StatusOK || string(body) != "ok" {
		t.Fatalf("Post = %d %q %v, want 200 \"ok\"", status, body, err)
	}
	if seen.Load() != 2 {
		t.Fatalf("server saw %d requests, want 2", seen.Load())
	}
	if c != (Counts{Retried: 3}) {
		t.Fatalf("counts %+v, want the 3 items retried", c)
	}
	// A 1 s hint is capped at retryAfterCap, then jittered into
	// [0.5, 1.5) of the cap.
	if waited < retryAfterCap/2 || waited >= time.Second {
		t.Fatalf("waited %v, want within [%v, 1s)", waited, retryAfterCap/2)
	}
}

func TestPostAbandonsWhenBudgetSpent(t *testing.T) {
	ts, seen := shedFirst(t, 100, "0")
	var c Counts
	status, _, err := Post(ts.Client(), ts.URL, "text/plain", nil, 1, 2, simrand.New(1), &c)
	if err != nil || status != http.StatusTooManyRequests {
		t.Fatalf("Post = %d %v, want 429", status, err)
	}
	if seen.Load() != 3 {
		t.Fatalf("server saw %d requests, want 1 + 2 retries", seen.Load())
	}
	if c != (Counts{Abandoned: 1}) {
		t.Fatalf("counts %+v, want one abandoned", c)
	}

	// Without a budget a shed is returned as is, counted neither way.
	c = Counts{}
	if status, _, _ := Post(ts.Client(), ts.URL, "text/plain", nil, 1, 0, nil, &c); status != http.StatusTooManyRequests || c != (Counts{}) {
		t.Fatalf("Post without retries = %d, counts %+v", status, c)
	}
}

func TestPostTransportError(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	var c Counts
	if _, _, err := Post(&http.Client{Timeout: time.Second}, url, "text/plain", nil, 4, 1, simrand.New(1), &c); err == nil {
		t.Fatal("Post to a closed server succeeded")
	}
	if c.Errors != 4 || c.FirstError == "" || c.Retried+c.Abandoned != 0 {
		t.Fatalf("counts %+v, want 4 errors with the first one's message", c)
	}
}

func TestRetryDelayCappedAndJittered(t *testing.T) {
	rng := simrand.New(7)
	for _, hint := range []string{"", "1", "30", "junk"} {
		resp := &http.Response{Header: http.Header{}}
		if hint != "" {
			resp.Header.Set("Retry-After", hint)
		}
		lo, hi := time.Duration(1<<62), time.Duration(0)
		for i := 0; i < 200; i++ {
			d := RetryDelay(resp, rng)
			lo, hi = min(lo, d), max(hi, d)
		}
		if lo < retryAfterCap/2 || hi >= retryAfterCap*3/2 || hi-lo < retryAfterCap/2 {
			t.Errorf("Retry-After %q: delays in [%v, %v], want spread across [%v, %v)",
				hint, lo, hi, retryAfterCap/2, retryAfterCap*3/2)
		}
	}
	resp := &http.Response{Header: http.Header{"Retry-After": {"0"}}}
	if d := RetryDelay(resp, rng); d != 0 {
		t.Errorf("Retry-After 0: delay %v, want 0", d)
	}
}

func TestCountsMerge(t *testing.T) {
	a := Counts{OK: 1, Shed: 2, Retried: 3, Abandoned: 4}
	a.Merge(Counts{OK: 10, Errors: 1, FirstError: "first", Abandoned: 1})
	a.Merge(Counts{Errors: 1, FirstError: "second"})
	if want := (Counts{OK: 11, Shed: 2, Errors: 2, Retried: 3, Abandoned: 5, FirstError: "first"}); a != want {
		t.Fatalf("merged %+v, want %+v", a, want)
	}
}
