package ring

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/netfaults"
)

// Serve is the lifecycle every serving daemon shares (vetd, sentryd and
// both routers): it serves h on addr, prints "<name>: listening on
// ADDR<detail>" once bound — the line the load tools and
// scripts/verify.sh wait for — and on SIGINT or SIGTERM runs drain (when
// non-nil) and shuts the listener down within 10s. It returns the
// process exit code: 0 after a clean shutdown, 1 otherwise.
func Serve(name, addr string, h http.Handler, detail string, drain func()) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: listen: %v\n", name, err)
		return 1
	}
	srv := &http.Server{Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("%s: listening on %s%s\n", name, ln.Addr(), detail)

	select {
	case <-ctx.Done():
		fmt.Printf("%s: signal received, shutting down\n", name)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "%s: serve: %v\n", name, err)
		return 1
	}
	if drain != nil {
		drain()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: shutdown: %v\n", name, err)
		return 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "%s: serve: %v\n", name, err)
		return 1
	}
	return 0
}

// ParsePeers reads the router binaries' -peers and -net-faults flags:
// the comma-separated peer list, and the fault plane for the named
// profile (nil when it injects nothing).
func ParsePeers(list, netFaults string, netSeed int64) ([]string, *netfaults.Plane, netfaults.Profile, error) {
	var peers []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return nil, nil, netfaults.Profile{}, errors.New("-peers is required")
	}
	prof, err := netfaults.ByName(netFaults)
	if err != nil || prof.Zero() {
		return peers, nil, prof, err
	}
	return peers, netfaults.NewPlane(prof, netSeed), prof, nil
}
