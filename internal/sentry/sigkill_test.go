package sentry

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// helperEnv makes a re-exec'ed copy of the test binary behave as a
// sentryd node: it boots a Server on an ephemeral port, prints
// "helper: listening on ADDR" and serves until it is killed.
const helperEnv = "SENTRY_SIGKILL_HELPER"

func TestMain(m *testing.M) {
	if _, ok := os.LookupEnv(helperEnv); !ok {
		os.Exit(m.Run())
	}
	srv, err := NewServer(ServerConfig{
		QueueDepth: 64, // deeper than the replay's client count: no shedding
		procDelay:  3 * time.Millisecond,
	})
	if err != nil {
		os.Stderr.WriteString("helper: " + err.Error() + "\n")
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.Stderr.WriteString("helper: " + err.Error() + "\n")
		os.Exit(1)
	}
	os.Stdout.WriteString("helper: listening on " + ln.Addr().String() + "\n")
	err = (&http.Server{Handler: srv}).Serve(ln)
	os.Stderr.WriteString("helper: serve: " + err.Error() + "\n")
	os.Exit(1)
}

// spawnHelper re-execs the test binary as a sentryd node and returns
// its base URL once the listener is up. The caller kills it.
func spawnHelper(t *testing.T) (*exec.Cmd, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(out)
	if !sc.Scan() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatalf("helper exited before announcing its address (scan err: %v)", sc.Err())
	}
	addr, ok := strings.CutPrefix(sc.Text(), "helper: listening on ")
	if !ok {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatalf("unexpected helper banner %q", sc.Text())
	}
	// Keep draining stdout so the child never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	return cmd, "http://" + addr
}

func detectionSet(snap Snapshot) map[string]string {
	set := make(map[string]string, len(snap.Detections))
	for _, d := range snap.Detections {
		set[d.Device] = d.Pattern
	}
	return set
}

// TestDetectionSurvivesSIGKILLRestart is the crash-semantics check for
// a stateless detection node: SIGKILL a node mid-replay, restart it
// fresh, rerun the fleet replay from the start — the final detection
// set must be identical to an uninterrupted run. sentryd keeps no
// persistent state by design (a restarted node re-derives everything
// from the re-played streams), so the property under test is that a
// kill can never corrupt what a fresh replay reports.
func TestDetectionSurvivesSIGKILLRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	fl, err := GenerateFleet(FleetConfig{Devices: 200, Attackers: 5, NotifAbusers: 3, Span: 8 * time.Second, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the uninterrupted run, straight through a bare engine
	// (transport cannot matter — that is the determinism contract).
	want := detectionSet(snapFromReplay(t, fl))
	if len(want) != 8 {
		t.Fatalf("reference run detected %d devices, want the 8 planted", len(want))
	}

	// Victim node: replay into it, kill it mid-replay.
	victim, base := spawnHelper(t)
	client := &http.Client{Timeout: 15 * time.Second}
	done := make(chan ReplayStats, 1)
	go func() { done <- ReplayFleet(client, base, fl, ReplayOptions{Clients: 16, Batch: 48}) }()
	time.Sleep(15 * time.Millisecond)
	_ = victim.Process.Kill()
	_ = victim.Wait() // reap; kill signal expected
	partial := <-done
	t.Logf("interrupted replay: %d ok, %d errors before/after the kill", partial.OK, partial.Errors)

	// Restart fresh and rerun the whole replay from the start.
	restarted, base := spawnHelper(t)
	defer func() {
		_ = restarted.Process.Kill()
		_ = restarted.Wait()
	}()
	rs := ReplayFleet(client, base, fl, ReplayOptions{Clients: 16, Batch: 48})
	if rs.Errors > 0 {
		t.Fatalf("post-restart replay errors: %d (first: %s)", rs.Errors, rs.FirstError)
	}
	resp, err := client.Get(base + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	got := detectionSet(snap)
	if len(got) != len(want) {
		t.Fatalf("detection set size %d after restart, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for dev, pattern := range want {
		if got[dev] != pattern {
			t.Fatalf("device %s: pattern %q after restart, want %q", dev, got[dev], pattern)
		}
	}
	if snap.Detected+snap.Clean+snap.Shed != snap.DevicesReported || snap.DevicesReported != len(fl.Devices) {
		t.Fatalf("post-restart accounting broken: %+v", snap)
	}
}
