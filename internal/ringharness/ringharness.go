// Package ringharness runs a serving ring as real processes — N peers,
// each on its own store directory, behind one router, all on ephemeral
// loopback ports — for the load tools' chaos mode (cmd/vetload and
// cmd/fleetload with -ring). It spawns, SIGKILLs, restarts and
// interrupts them, drives the seeded kill/restart chaos schedule, and
// requires clean SIGINT exits at shutdown.
//
// ringharness is a wall-clock serving package (simlint's
// ServingPackages allowlist): it drives real processes on real time.
// Its only randomness is the chaos schedule, drawn from a seeded
// internal/simrand stream.
package ringharness

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
	cmd  *exec.Cmd
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

// kill SIGKILLs the process and reaps it.
func (p *proc) kill() {
	p.mu.Lock()
	cmd, done := p.cmd, p.done
	p.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
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
	p.mu.Lock()
	cmd, done := p.cmd, p.done
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
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
	// directories (default: a fresh temp dir).
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
	peers  []*proc
	router *proc

	chaosStop chan struct{}
	chaosDone chan struct{}
	stopOnce  sync.Once
	kills     atomic.Int64
}

// Start spawns the peers, then the router over their concrete
// addresses, and returns the harness and the router's base URL.
func Start(cfg Config) (*Harness, string, error) {
	if cfg.StoreDir == "" {
		dir, err := os.MkdirTemp("", cfg.Tool+"-ring-")
		if err != nil {
			return nil, "", err
		}
		cfg.StoreDir = dir
	}
	h := &Harness{cfg: cfg}
	addrs := make([]string, cfg.Peers)
	for i := range addrs {
		dir := filepath.Join(cfg.StoreDir, fmt.Sprintf("peer%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			h.KillAll()
			return nil, "", err
		}
		args := append(append([]string{"-addr", "127.0.0.1:0"}, cfg.PeerArgs...), "-store", dir)
		p, err := spawn(fmt.Sprintf("%s%d", cfg.PeerName, i), cfg.PeerBin, cfg.PeerName, args)
		if err != nil {
			h.KillAll()
			return nil, "", err
		}
		h.peers = append(h.peers, p)
		addrs[i] = p.listenAddr()
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-peers", strings.Join(addrs, ",")}, cfg.RouterArgs...)
	router, err := spawn("router", cfg.RouterBin, cfg.RouterName, args)
	if err != nil {
		h.KillAll()
		return nil, "", err
	}
	h.router = router
	return h, "http://" + router.listenAddr(), nil
}

// StartChaos begins the seeded kill/restart schedule: every interval
// (jittered ±50%) one seeded-chosen peer is SIGKILLed, left down
// briefly, and restarted on the same address and store — for maxKills
// cycles, or until StopChaos when maxKills is negative.
func (h *Harness) StartChaos(interval time.Duration, maxKills int) {
	h.chaosStop = make(chan struct{})
	h.chaosDone = make(chan struct{})
	rng := simrand.New(h.cfg.Seed).Derive(h.cfg.Tool + "/chaos")
	go func() {
		defer close(h.chaosDone)
		for maxKills < 0 || h.Kills() < maxKills {
			wait := time.Duration(float64(interval) * (0.5 + rng.Float64()))
			select {
			case <-h.chaosStop:
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
			case <-h.chaosStop:
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
	}()
}

// StopChaos ends the schedule and waits for the peer it may be cycling
// to come back.
func (h *Harness) StopChaos() {
	if h.chaosStop != nil {
		h.stopOnce.Do(func() { close(h.chaosStop) })
		<-h.chaosDone
	}
}

// WaitChaos blocks until a bounded schedule finishes its cycles,
// stopping it after timeout.
func (h *Harness) WaitChaos(timeout time.Duration) {
	if h.chaosDone == nil {
		return
	}
	select {
	case <-h.chaosDone:
	case <-time.After(timeout):
		h.StopChaos()
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

// Shutdown SIGINTs the router then every peer, requiring clean exits.
func (h *Harness) Shutdown() error {
	var firstErr error
	if h.router != nil {
		if err := h.router.interrupt(10 * time.Second); err != nil {
			firstErr = fmt.Errorf("router: %w", err)
		}
	}
	for _, p := range h.peers {
		if err := p.interrupt(10 * time.Second); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", p.label, err)
		}
	}
	return firstErr
}

// KillAll is the error-path cleanup: kill everything, ignore outcomes.
func (h *Harness) KillAll() {
	if h.router != nil {
		h.router.kill()
	}
	for _, p := range h.peers {
		p.kill()
	}
}
