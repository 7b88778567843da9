// Package load is the client side of the serving planes, shared by the
// load tools cmd/vetload and cmd/fleetload: the one loop that re-sends a
// shed request after its Retry-After wait (Post), the outcome counts
// every replay reports (Counts), the labeled fleet replay that doubles
// as the sentry conformance run (ReplayFleet, RenderFleetReport), and
// the process harness behind both tools' ring mode (Run): N peers, each
// on its own store directory, behind one router, all on ephemeral
// loopback ports, SIGKILLed and restarted on a seeded chaos schedule,
// and required to exit cleanly on SIGINT.
//
// load is a wall-clock serving package (simlint's ServingPackages
// allowlist): it drives real processes and real HTTP on real time. Its
// only randomness, the chaos schedule and the retry jitter, is drawn
// from seeded internal/simrand streams.
package load

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/simrand"
)

// proc is one spawned process. Its output is forwarded to stdout,
// prefixed with its label.
type proc struct {
	label string

	bin    string
	args   []string
	listen string // the "<name>: listening on " line prefix

	mu   sync.Mutex
	cmd  *exec.Cmd // nil once reaped, until a restart succeeds
	addr string
	done chan error
}

// spawn starts the process and waits for its listening line, the way
// scripts/verify.sh finds ephemeral ports.
func spawn(label, bin, name string, args []string) (*proc, error) {
	p := &proc{label: label, bin: bin, args: args, listen: name + ": listening on "}
	if err := p.start(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *proc) start() error {
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, p.listen); ok {
				select {
				case addrc <- strings.Fields(a)[0]:
				default:
				}
			}
			fmt.Printf("  [%s] %s\n", p.label, line)
		}
		done <- cmd.Wait()
	}()
	select {
	case addr := <-addrc:
		p.mu.Lock()
		p.cmd, p.addr, p.done = cmd, addr, done
		p.mu.Unlock()
		return nil
	case err := <-done:
		return fmt.Errorf("%s exited before listening: %v", p.label, err)
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		return fmt.Errorf("%s: no listening line within 10s", p.label)
	}
}

// listenAddr returns the concrete address the process listens on.
func (p *proc) listenAddr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

// reap claims the running process, marking it not running: its done
// channel carries one exit, so only the claimant may wait on it.
func (p *proc) reap() (*exec.Cmd, chan error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cmd, done := p.cmd, p.done
	p.cmd = nil
	return cmd, done
}

// kill SIGKILLs the process and reaps it; a process that is not running
// (already reaped, or its restart failed) is left alone.
func (p *proc) kill() {
	if cmd, done := p.reap(); cmd != nil {
		cmd.Process.Kill()
		<-done
	}
}

// restart re-execs the process on its previous concrete address (the
// restart path of a crashed peer: same identity, same store), so the
// ring topology is unchanged.
func (p *proc) restart() error {
	p.mu.Lock()
	args := append([]string(nil), p.args...)
	for i := 0; i < len(args)-1; i++ {
		if args[i] == "-addr" {
			args[i+1] = p.addr
		}
	}
	p.args = args
	p.mu.Unlock()
	return p.start()
}

// interrupt SIGINTs the process and returns its exit error (nil for a
// clean exit 0), killing it if it does not exit within timeout.
func (p *proc) interrupt(timeout time.Duration) error {
	cmd, done := p.reap()
	if cmd == nil {
		return fmt.Errorf("%s: not running", p.label)
	}
	cmd.Process.Signal(syscall.SIGINT)
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s: no clean exit within %v; killed", p.label, timeout)
	}
}

// Config describes a ring: what the load tools differ in.
type Config struct {
	// Tool names the log lines and the chaos stream ("vetload").
	Tool string
	// Seed seeds the chaos schedule.
	Seed int64
	// Peers is the ring size; StoreDir the root of the per-peer store
	// directories (default: a fresh temp dir, removed with the ring).
	Peers    int
	StoreDir string
	// PeerBin runs each peer as PeerBin -addr 127.0.0.1:0 PeerArgs...
	// -store DIR; PeerName is the peer's log name ("vetd"), which labels
	// it and prefixes its "listening on" line.
	PeerBin  string
	PeerName string
	PeerArgs []string
	// RouterBin runs the router as RouterBin -addr 127.0.0.1:0 -peers
	// ADDRS RouterArgs...; RouterName is its log name ("vetrouter").
	RouterBin  string
	RouterName string
	RouterArgs []string
}

// Harness owns a spawned ring.
type Harness struct {
	cfg    Config
	tmpDir string // the store root start created, if it did
	peers  []*proc
	router *proc
	kills  atomic.Int64
}

// Run is the load tools' ring mode. It spawns the ring cfg describes,
// calls replay with the router's base URL while the chaos schedule runs
// (see chaos; a chaos interval of 0 disables it), ends the schedule once
// replay returns, or, when kills is not negative, once it has run its
// kills cycles (for at most a minute), calls check, and SIGINTs every
// process, requiring clean exits. It returns check's exit code, or an
// error when the ring fails to start, the schedule runs short, or a
// process does not exit cleanly.
func Run(cfg Config, chaos time.Duration, kills int, replay func(base string), check func(h *Harness, base string) int) (int, error) {
	h, base, err := start(cfg)
	if err != nil {
		return 1, err
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		if chaos > 0 {
			h.chaos(chaos, kills, stop)
		}
	}()
	replay(base)
	if kills >= 0 {
		select {
		case <-done:
		case <-time.After(time.Minute):
		}
	}
	close(stop)
	<-done
	if chaos > 0 && h.Kills() < kills {
		h.killAll()
		return 1, fmt.Errorf("chaos ran only %d of %d cycles", h.Kills(), kills)
	}
	code := check(h, base)
	if err := h.shutdown(); err != nil {
		return 1, fmt.Errorf("shutdown: %w", err)
	}
	return code, nil
}

// start spawns the peers, then the router over their concrete
// addresses, and returns the harness and the router's base URL.
func start(cfg Config) (*Harness, string, error) {
	h := &Harness{cfg: cfg}
	if cfg.StoreDir == "" {
		dir, err := os.MkdirTemp("", cfg.Tool+"-ring-")
		if err != nil {
			return nil, "", err
		}
		h.cfg.StoreDir, h.tmpDir = dir, dir
	}
	addrs := make([]string, cfg.Peers)
	for i := range addrs {
		dir := filepath.Join(h.cfg.StoreDir, fmt.Sprintf("peer%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			h.killAll()
			return nil, "", err
		}
		args := append(append([]string{"-addr", "127.0.0.1:0"}, cfg.PeerArgs...), "-store", dir)
		p, err := spawn(fmt.Sprintf("%s%d", cfg.PeerName, i), cfg.PeerBin, cfg.PeerName, args)
		if err != nil {
			h.killAll()
			return nil, "", err
		}
		h.peers = append(h.peers, p)
		addrs[i] = p.listenAddr()
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-peers", strings.Join(addrs, ",")}, cfg.RouterArgs...)
	router, err := spawn("router", cfg.RouterBin, cfg.RouterName, args)
	if err != nil {
		h.killAll()
		return nil, "", err
	}
	h.router = router
	return h, "http://" + router.listenAddr(), nil
}

// chaos runs the seeded kill/restart schedule: every interval
// (jittered ±50%) one seeded-chosen peer is SIGKILLed, left down
// briefly, and restarted on the same address and store — for maxKills
// cycles, or until stop closes when maxKills is negative.
func (h *Harness) chaos(interval time.Duration, maxKills int, stop <-chan struct{}) {
	rng := simrand.New(h.cfg.Seed).Derive(h.cfg.Tool + "/chaos")
	for maxKills < 0 || h.Kills() < maxKills {
		wait := time.Duration(float64(interval) * (0.5 + rng.Float64()))
		select {
		case <-stop:
			return
		case <-time.After(wait):
		}
		victim := h.peers[rng.Intn(len(h.peers))]
		fmt.Printf("%s: chaos: SIGKILL %s (%s)\n", h.cfg.Tool, victim.label, victim.listenAddr())
		victim.kill()
		h.kills.Add(1)
		downFor := time.Duration(float64(interval) * 0.25 * (0.5 + rng.Float64()))
		stopping := false
		select {
		case <-stop:
			// Restart even when stopping, so the final shutdown pass
			// finds every peer alive and can verify clean exits.
			stopping = true
		case <-time.After(downFor):
		}
		if err := victim.restart(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: chaos: restart %s: %v\n", h.cfg.Tool, victim.label, err)
			return
		}
		if stopping {
			return
		}
		fmt.Printf("%s: chaos: restarted %s on %s\n", h.cfg.Tool, victim.label, victim.listenAddr())
	}
}

// Kills reports the chaos kill/restart cycles so far.
func (h *Harness) Kills() int { return int(h.kills.Load()) }

// RestartPeers SIGKILLs every peer, then restarts each on its address
// and store — a ring-wide power cycle.
func (h *Harness) RestartPeers() error {
	for _, p := range h.peers {
		fmt.Printf("%s: power-cycle: SIGKILL %s (%s)\n", h.cfg.Tool, p.label, p.listenAddr())
		p.kill()
	}
	for _, p := range h.peers {
		if err := p.restart(); err != nil {
			return fmt.Errorf("restart %s: %w", p.label, err)
		}
	}
	return nil
}

// procs lists the router, once it is up, then the peers.
func (h *Harness) procs() []*proc {
	if h.router == nil {
		return h.peers
	}
	return append([]*proc{h.router}, h.peers...)
}

// shutdown SIGINTs the router then every peer, requiring clean exits,
// and removes the store root if start created it (RemoveAll of "" is a
// no-op).
func (h *Harness) shutdown() error {
	defer os.RemoveAll(h.tmpDir)
	var firstErr error
	for _, p := range h.procs() {
		if err := p.interrupt(10 * time.Second); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", p.label, err)
		}
	}
	return firstErr
}

// killAll is the error-path cleanup: kill everything, ignore outcomes,
// and remove the store root if start created it.
func (h *Harness) killAll() {
	for _, p := range h.procs() {
		p.kill()
	}
	os.RemoveAll(h.tmpDir)
}
