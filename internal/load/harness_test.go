package load

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// daemonEnv makes a re-executed copy of the test binary behave as a
// ring daemon: it listens on -addr, prints "fake: listening on ADDR",
// and exits 0 on SIGINT.
const daemonEnv = "LOAD_FAKE_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "" {
		os.Exit(m.Run())
	}
	fs := flag.NewFlagSet("fake", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	fs.String("store", "", "store directory (peers)")
	fs.String("peers", "", "peer addresses (router)")
	fs.Parse(os.Args[1:])
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fake:", err)
		os.Exit(1)
	}
	fmt.Printf("fake: listening on %s\n", ln.Addr())
	<-sig
	os.Exit(0)
}

// fakeRing describes a ring of re-executed fake daemons.
func fakeRing(t *testing.T, peers int, storeDir string) Config {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(daemonEnv, "1")
	return Config{Tool: "loadtest", Seed: 1, Peers: peers, StoreDir: storeDir,
		PeerBin: exe, PeerName: "fake", RouterBin: exe, RouterName: "fake"}
}

// TestRunLifecycle drives a two-peer ring through one chaos cycle and a
// ring-wide power cycle to clean SIGINT exits; the temp store root the
// harness created is gone afterwards.
func TestRunLifecycle(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var router string
	code, err := Run(fakeRing(t, 2, ""), 10*time.Millisecond, 1, func(base string) {
		router = base
	}, func(h *Harness, base string) int {
		if base != router || !strings.HasPrefix(base, "http://127.0.0.1:") {
			t.Errorf("check saw router %q, replay saw %q", base, router)
		}
		if h.Kills() != 1 {
			t.Errorf("chaos ran %d cycles, want 1", h.Kills())
		}
		if _, err := os.Stat(filepath.Join(h.tmpDir, "peer1")); err != nil {
			t.Errorf("peer store: %v", err)
		}
		before := []string{h.peers[0].listenAddr(), h.peers[1].listenAddr()}
		if err := h.RestartPeers(); err != nil {
			t.Errorf("power cycle: %v", err)
		}
		if after := []string{h.peers[0].listenAddr(), h.peers[1].listenAddr()}; strings.Join(after, ",") != strings.Join(before, ",") {
			t.Errorf("peers moved across the power cycle: %v -> %v", before, after)
		}
		return 7
	})
	if code != 7 || err != nil {
		t.Fatalf("Run = %d, %v; want check's 7 and clean exits", code, err)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("temp store root left behind: %v", left)
	}
}

// TestRunKeepsCallerStoreDir: a store root the caller names outlives
// the ring, and a failed start still removes a root the harness made.
func TestRunKeepsCallerStoreDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(fakeRing(t, 1, dir), 0, -1, func(string) {}, func(*Harness, string) int { return 0 }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "peer0")); err != nil {
		t.Fatalf("caller's store root: %v", err)
	}

	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	cfg := fakeRing(t, 1, "")
	cfg.RouterBin = filepath.Join(tmp, "missing")
	if _, err := Run(cfg, 0, -1, func(string) { t.Error("replay ran without a router") }, nil); err == nil {
		t.Fatal("Run started a ring whose router binary is missing")
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("temp store root left behind after a failed start: %v", left)
	}
}

// TestKillAfterFailedRestart: once a restart fails, the process is not
// running, so a later kill returns at once and interrupt says so.
func TestKillAfterFailedRestart(t *testing.T) {
	cfg := fakeRing(t, 1, "")
	p, err := spawn("fake0", cfg.PeerBin, "fake", []string{"-addr", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	p.kill()
	p.bin = filepath.Join(t.TempDir(), "missing")
	if err := p.restart(); err == nil {
		t.Fatal("restart of a missing binary succeeded")
	}
	done := make(chan struct{})
	go func() {
		p.kill()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("kill still blocked 3s after a failed restart")
	}
	if err := p.interrupt(time.Second); err == nil || !strings.Contains(err.Error(), "not running") {
		t.Fatalf("interrupt after a failed restart = %v, want not running", err)
	}
}
