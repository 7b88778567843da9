package simlint

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// simulatorPackages are the simulator's own layers: the virtual clock,
// the binder bus, the simulator's fault plane and the framework it
// drives.
var simulatorPackages = map[string]bool{
	"internal/simclock": true, "internal/binder": true, "internal/faults": true,
	"internal/sysserver": true, "internal/sysui": true, "internal/wm": true,
	"internal/anim": true, "internal/device": true,
}

// moduleImports returns the module-relative paths of every package pkg
// imports, directly or not, outside its tests. It resolves imports from
// the source tree with go/build alone; stop packages are neither
// followed nor returned.
func moduleImports(t *testing.T, root, pkg string, stop map[string]bool) map[string]bool {
	t.Helper()
	seen := map[string]bool{}
	var walk func(string)
	walk = func(p string) {
		bp, err := build.ImportDir(filepath.Join(root, p), 0)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, imp := range bp.Imports {
			rel, ok := strings.CutPrefix(imp, "repro/")
			if !ok || seen[rel] || stop[rel] {
				continue
			}
			seen[rel] = true
			walk(rel)
		}
	}
	walk(pkg)
	return seen
}

// TestServingImportsNoSimulator holds the serving/simulator boundary:
// the sentry serving stack — the ring core and its network fault plane,
// sentryd, the ingest router, the detection store, both daemons, the
// load tool and its package — links no simulator package. The vetting
// stack is the one named exception: vetd, vetring, vetstore and their
// mains reach the simulator through internal/defense, which holds both
// the §VII static VetTier they serve and the §VII-A IPCDetector that
// runs on the bus. For them the test stops at internal/defense, so any
// other edge into the simulator fails it too.
func TestServingImportsNoSimulator(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, tc := range []struct {
		pkgs []string
		stop map[string]bool
	}{
		{pkgs: []string{
			"internal/ring", "internal/netfaults", "internal/applog", "internal/sentry", "internal/sentring",
			"internal/sentrystore", "internal/load", "cmd/sentryd", "cmd/sentryrouter", "cmd/fleetload",
		}},
		{pkgs: []string{
			"internal/vetd", "internal/vetring", "internal/vetstore", "cmd/vetd", "cmd/vetrouter", "cmd/vetload",
		}, stop: map[string]bool{"internal/defense": true}},
	} {
		for _, pkg := range tc.pkgs {
			for dep := range moduleImports(t, root, pkg, tc.stop) {
				if simulatorPackages[dep] {
					t.Errorf("%s links simulator package %s", pkg, dep)
				}
			}
		}
	}
}

// TestSimulationImportsNoHTTP holds the boundary the other way: nothing
// the simulator runs — internal/experiment, internal/defense, the
// simulator's own layers and every module package they reach — imports
// net/http. The walk stops at internal/sentry, the one named exception:
// the simulator runs its detection engine, which still shares the
// package with the sentryd server.
func TestSimulationImportsNoHTTP(t *testing.T) {
	root := filepath.Join("..", "..")
	stop := map[string]bool{"internal/sentry": true}
	check := func(pkg string) {
		reached := moduleImports(t, root, pkg, stop)
		reached[pkg] = true
		for dep := range reached {
			bp, err := build.ImportDir(filepath.Join(root, dep), 0)
			if err != nil {
				t.Fatalf("%s: %v", dep, err)
			}
			for _, imp := range bp.Imports {
				if imp == "net/http" || strings.HasPrefix(imp, "net/http/") {
					t.Errorf("%s reaches %s, which imports %s", pkg, dep, imp)
				}
			}
		}
	}
	check("internal/experiment")
	check("internal/defense")
	for pkg := range simulatorPackages {
		check(pkg)
	}
}
