package ring

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/netfaults"
)

// faultTransport is the fault-injection seam of the network plane: an
// http.RoundTripper that consults a netfaults.Plane before forwarding
// to the real transport. The deterministic decision (drop / delay /
// synthesize) lives in the plane; this adapter only enacts it — it is
// the one place in the ring that sleeps or fabricates responses, and it
// is never installed when the plane is nil, so production paths carry
// zero fault-injection overhead.
type faultTransport struct {
	base  http.RoundTripper
	plane *netfaults.Plane
	peer  int
}

// newPeerTransport wraps base with fault injection for peer index i;
// with a nil plane it returns base untouched.
func newPeerTransport(base http.RoundTripper, plane *netfaults.Plane, i int) http.RoundTripper {
	if plane == nil {
		return base
	}
	return &faultTransport{base: base, plane: plane, peer: i}
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.plane.RequestFault(t.peer)
	if f.Drop {
		// The request body must be consumed/closed like a real transport
		// would, or client retries leak body readers.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("netfault: peer %d unreachable (injected)", t.peer)
	}
	if f.Delay > 0 {
		select {
		case <-time.After(f.Delay):
		case <-req.Context().Done():
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		}
	}
	if f.Status != 0 {
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return &http.Response{
			Status:     fmt.Sprintf("%d netfault", f.Status),
			StatusCode: f.Status,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(strings.NewReader(`{"error":"injected 5xx storm"}`)),
			Request:    req,
		}, nil
	}
	return t.base.RoundTrip(req)
}
