// Ops-surface pins: every serving daemon (vetd, sentryd, vetrouter,
// sentryrouter) is driven through a fixed request sequence and its
// GET /healthz, /readyz, /stats and /metrics answers are compared with
// testdata/ops/<daemon>.txt. Regenerate with
//
//	go test -run TestOpsEndpointsPinned -update-ops .
package repro_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/appstore"
	"repro/internal/dexir"
	"repro/internal/sentring"
	"repro/internal/sentry"
	"repro/internal/vetd"
	"repro/internal/vetring"
	"repro/internal/vetstore"
)

var updateOps = flag.Bool("update-ops", false, "rewrite testdata/ops/*.txt from the current code")

// peerTransport serves each fixed peer name from an in-process handler,
// so peer labels and ring placement do not depend on ephemeral ports.
// A name with no handler is a dead peer: every attempt fails in transit.
type peerTransport map[string]http.Handler

func (t peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t[req.URL.Host]
	if !ok {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("peer %s down", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// opsPinner drives one daemon's handler and records its ops answers.
type opsPinner struct {
	t   *testing.T
	h   http.Handler
	out strings.Builder
}

func (p *opsPinner) do(method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	return rec
}

// want fails the test unless the request answers status.
func (p *opsPinner) want(status int, method, path string, body []byte) {
	p.t.Helper()
	if rec := p.do(method, path, body); rec.Code != status {
		p.t.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, status, rec.Body.String())
	}
}

// probe records /healthz and /readyz byte for byte.
func (p *opsPinner) probe(label string) {
	for _, path := range []string{"/healthz", "/readyz"} {
		rec := p.do("GET", path, nil)
		fmt.Fprintf(&p.out, "== %sGET %s\n%d %s", label, path, rec.Code, rec.Body.String())
	}
}

// snapshot records all four ops endpoints: /stats as its decoded
// key→value map and /metrics as its sorted lines, with the wall-clock
// latency values masked.
func (p *opsPinner) snapshot() {
	p.probe("")
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(p.do("GET", "/stats", nil).Body.Bytes(), &stats); err != nil {
		p.t.Fatalf("decode /stats: %v", err)
	}
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	p.out.WriteString("== GET /stats\n")
	for _, k := range keys {
		v := string(stats[k])
		if strings.HasSuffix(k, "_sec") {
			v = "<latency>"
		}
		fmt.Fprintf(&p.out, "%s=%s\n", k, v)
	}
	lines := strings.Split(strings.TrimSuffix(p.do("GET", "/metrics", nil).Body.String(), "\n"), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "vetd_latency_seconds_") {
			lines[i] = l[:strings.LastIndexByte(l, ' ')] + " <latency>"
		}
	}
	sort.Strings(lines)
	p.out.WriteString("== GET /metrics (sorted)\n" + strings.Join(lines, "\n") + "\n")
}

func (p *opsPinner) check(name string) {
	p.t.Helper()
	path := filepath.Join("testdata", "ops", name+".txt")
	got := p.out.String()
	if *updateOps {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			p.t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			p.t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		p.t.Fatalf("read golden (run with -update-ops to create it): %v", err)
	}
	if got != string(want) {
		p.t.Errorf("%s ops answers drifted from %s\n-- got --\n%s\n-- want --\n%s", name, path, got, want)
	}
}

// vetBodies encodes n single-app vet requests and one batch of the
// first two apps plus a missing item.
func vetBodies(t *testing.T, n int) (single [][]byte, batch []byte) {
	t.Helper()
	apks, err := appstore.GenerateApps(benchSeed, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, apk := range apks {
		b, err := json.Marshal(vetd.VetRequest{App: apk.IR})
		if err != nil {
			t.Fatal(err)
		}
		single = append(single, b)
	}
	batch, err = json.Marshal(vetd.BatchRequest{Apps: append([]*dexir.App{apks[0].IR, apks[1].IR}, nil)})
	if err != nil {
		t.Fatal(err)
	}
	return single, batch
}

// driveVet sends the fixed vet sequence: every app twice (a miss, then
// a hit), one batch, and one malformed body.
func driveVet(p *opsPinner, single [][]byte, batch []byte) {
	for pass := 0; pass < 2; pass++ {
		for _, b := range single {
			p.want(http.StatusOK, "POST", "/v1/vet", b)
		}
	}
	p.want(http.StatusOK, "POST", "/v1/vet/batch", batch)
	p.want(http.StatusBadRequest, "POST", "/v1/vet", []byte("{"))
}

// sentryBodies encodes a small labeled fleet as 48-record batches.
func sentryBodies(t *testing.T) (devices []string, bodies [][]byte, config []byte) {
	t.Helper()
	fl, err := sentry.GenerateFleet(sentry.FleetConfig{
		Devices: 16, Attackers: 2, NotifAbusers: 1, Span: 4 * time.Second, Seed: benchSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fl.Devices {
		for recs := d.Records; len(recs) > 0; {
			n := min(len(recs), 48)
			b, err := sentry.EncodeBatch(recs[:n])
			if err != nil {
				t.Fatal(err)
			}
			devices, bodies = append(devices, d.ID), append(bodies, b)
			recs = recs[n:]
		}
	}
	eng, err := sentry.NewEngine(sentry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	u := eng.ConfigSnapshot()
	u.Version, u.MinCalls = 0, u.MinCalls+1
	if config, err = u.Encode(); err != nil {
		t.Fatal(err)
	}
	return devices, bodies, config
}

// driveSentry sends the fixed ingest sequence: the whole fleet, a
// malformed batch, a report, a flagged query and a rule swap.
func driveSentry(p *opsPinner, devices []string, bodies [][]byte, config []byte) {
	for i, b := range bodies {
		p.want(http.StatusOK, "POST", "/v1/ingest?device="+devices[i], b)
	}
	p.want(http.StatusBadRequest, "POST", "/v1/ingest?device="+devices[0], []byte("garbage"))
	p.want(http.StatusOK, "GET", "/v1/report", nil)
	p.want(http.StatusOK, "GET", "/v1/flagged?device="+devices[0], nil)
	p.want(http.StatusOK, "POST", "/v1/config", config)
}

// TestOpsEndpointsPinned pins the four daemons' ops answers after a
// fixed request sequence, and /healthz and /readyz again once each
// daemon has begun shutting down.
func TestOpsEndpointsPinned(t *testing.T) {
	single, batch := vetBodies(t, 10)
	devices, bodies, config := sentryBodies(t)

	t.Run("vetd", func(t *testing.T) {
		st, err := vetstore.Open(filepath.Join(t.TempDir(), "verdicts.log"))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		s := vetd.New(vetd.Config{Workers: 1, Store: st})
		p := &opsPinner{t: t, h: s}
		driveVet(p, single, batch)
		p.snapshot()
		s.Close()
		p.probe("closed: ")
		p.check("vetd")
	})

	t.Run("sentryd", func(t *testing.T) {
		s, err := sentry.NewServer(sentry.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		p := &opsPinner{t: t, h: s}
		driveSentry(p, devices, bodies, config)
		p.snapshot()
		s.Close()
		p.probe("closed: ")
		p.check("sentryd")
	})

	// Both routers front two live peers and one dead one, replicas=2, so
	// failover, peer errors, breaker opens and skips, and (for the write
	// router) retry passes all show in the counters.
	peers := []string{"peer-a:1", "peer-b:2", "peer-dead:3"}

	t.Run("vetrouter", func(t *testing.T) {
		tr := peerTransport{}
		for _, name := range peers[:2] {
			s := vetd.New(vetd.Config{Workers: 1})
			defer s.Close()
			tr[name] = s
		}
		r, err := vetring.New(vetring.Config{
			Peers: peers, Replicas: 2, ProbeInterval: -1, RetryBase: time.Millisecond,
			BreakerCooldown: time.Hour, Transport: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := &opsPinner{t: t, h: r}
		driveVet(p, single, batch)
		p.snapshot()
		r.Close()
		p.probe("closed: ")
		p.check("vetrouter")
	})

	t.Run("sentryrouter", func(t *testing.T) {
		tr := peerTransport{}
		for _, name := range peers[:2] {
			s, err := sentry.NewServer(sentry.ServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			tr[name] = s
		}
		r, err := sentring.New(sentring.Config{
			Peers: peers, Replicas: 2, ProbeInterval: -1, RetryBase: time.Millisecond,
			BreakerCooldown: time.Hour, Transport: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := &opsPinner{t: t, h: r}
		driveSentry(p, devices, bodies, config)
		p.snapshot()
		r.Close()
		p.probe("closed: ")
		p.check("sentryrouter")
	})
}
