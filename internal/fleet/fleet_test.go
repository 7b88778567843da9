package fleet

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment/sched"
)

// update regenerates the golden manifests instead of comparing:
//
//	go test ./internal/fleet -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden/*.txt from the current code")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir golden dir: %v", err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden %s\n-- got --\n%s\n-- want --\n%s\n(run with -update if the change is intentional)",
			name, path, got, string(want))
	}
}

func mustGenerate(t *testing.T, size int, seed int64) *Fleet {
	t.Helper()
	f, err := Generate(size, seed)
	if err != nil {
		t.Fatalf("Generate(%d, %d): %v", size, seed, err)
	}
	return f
}

// TestWeightsSumToOne is the normalization property from the issue:
// market-share weights sum to 1 at every size and seed.
func TestWeightsSumToOne(t *testing.T) {
	for _, size := range []int{1, 7, 50, 200, 1000} {
		for _, seed := range []int64{1, 2, 7, 42} {
			f := mustGenerate(t, size, seed)
			var sum float64
			for _, e := range f.Entries() {
				sum += e.Weight
				if e.Weight <= 0 {
					t.Fatalf("size=%d seed=%d: nonpositive weight %v for %s", size, seed, e.Weight, e.Profile.Model)
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("size=%d seed=%d: weights sum to %.12f, want 1", size, seed, sum)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, 200, 42)
	b := mustGenerate(t, 200, 42)
	if !reflect.DeepEqual(a.Entries(), b.Entries()) {
		t.Fatal("same (size, seed) generated different fleets")
	}
	c := mustGenerate(t, 200, 43)
	if reflect.DeepEqual(a.Entries(), c.Entries()) {
		t.Fatal("different seeds generated identical fleets")
	}
}

// TestGenerateConcurrentlyIdentical generates the same fleet from 8
// concurrent workers on the trial scheduler (the repo's one sanctioned
// concurrency layer): the result must be byte-identical regardless of
// scheduling — the generation-side half of the workers-1/2/8 contract.
func TestGenerateConcurrentlyIdentical(t *testing.T) {
	want := mustGenerate(t, 120, 42)
	got := make([]*Fleet, 8)
	err := sched.Run(context.Background(), 8, len(got), func(i int) error {
		f, err := Generate(120, 42)
		if err != nil {
			return err
		}
		got[i] = f
		return nil
	})
	if err != nil {
		t.Fatalf("concurrent Generate: %v", err)
	}
	for i, f := range got {
		if !reflect.DeepEqual(f.Entries(), want.Entries()) {
			t.Fatalf("worker %d generated a different fleet", i)
		}
	}
}

// TestPrefixStability: device i depends only on (seed, i), so a smaller
// fleet is a prefix of a larger one up to weight renormalization.
func TestPrefixStability(t *testing.T) {
	small := mustGenerate(t, 100, 42)
	large := mustGenerate(t, 200, 42)
	for i := range small.Entries() {
		se, le := small.Entries()[i], large.Entries()[i]
		if !reflect.DeepEqual(se.Profile, le.Profile) {
			t.Fatalf("device %d profile changed when the fleet grew", i)
		}
		if !reflect.DeepEqual(se.Faults, le.Faults) {
			t.Fatalf("device %d fault calibration changed when the fleet grew", i)
		}
		if se.Background != le.Background {
			t.Fatalf("device %d background load changed when the fleet grew", i)
		}
	}
	// Weights renormalize but stay proportional.
	r0 := small.Entries()[0].Weight / large.Entries()[0].Weight
	for i := range small.Entries() {
		r := small.Entries()[i].Weight / large.Entries()[i].Weight
		if math.Abs(r-r0) > 1e-9*r0 {
			t.Fatalf("device %d weight not proportional across fleet sizes", i)
		}
	}
}

func TestGoldenManifest(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		f := mustGenerate(t, 250, seed)
		checkGolden(t, fmt.Sprintf("manifest_seed%d", seed), manifest(f))
	}
}

// TestCatalogSurface checks what the sweep reads off a fleet: a name
// carrying (size, seed), and entries with unique, family-tagged models.
func TestCatalogSurface(t *testing.T) {
	f := mustGenerate(t, 100, 42)
	if f.Name() != "fleet(size=100,seed=42)" {
		t.Fatalf("Name = %q", f.Name())
	}
	if len(f.Entries()) != 100 {
		t.Fatalf("%d entries, want 100", len(f.Entries()))
	}
	models := map[string]bool{}
	for _, e := range f.Entries() {
		p := e.Profile
		if models[p.Model] {
			t.Fatalf("duplicate model %q", p.Model)
		}
		models[p.Model] = true
		if p.Family == "" {
			t.Fatalf("%s has no family tag", p.Model)
		}
	}
	if models["pixel 2"] {
		t.Fatal("fleet reused a seed-catalog model name")
	}
}

// TestPopulationShape sanity-checks the distributions at a size large
// enough for the law of large numbers: the animations-off population
// lands near its 2.5% rate, every family is represented, and the fault
// calibrations are valid probabilities with the thermal plane armed.
func TestPopulationShape(t *testing.T) {
	f := mustGenerate(t, 4000, 42)
	var off, thermalArmed int
	fams := map[string]int{}
	for _, e := range f.Entries() {
		fams[e.Profile.Family]++
		if e.Profile.AnimationsOff {
			off++
		}
		fp := e.Faults
		for _, pr := range []float64{fp.DropProb, fp.SpikeProb, fp.FrameDropProb, fp.FrameJitterProb, fp.PreemptProb, fp.ThermalProb} {
			if pr < 0 || pr > 1 {
				t.Fatalf("%s: fault probability %v outside [0,1]", e.Profile.Model, pr)
			}
		}
		if fp.ThermalProb > 0 {
			thermalArmed++
			if fp.ThermalOnsetFrames <= 0 || fp.ThermalRampFrames <= 0 {
				t.Fatalf("%s: thermal armed without onset/ramp", e.Profile.Model)
			}
		}
		if e.Background < 0 || e.Background > maxBackgroundApps {
			t.Fatalf("%s: background load %d out of range", e.Profile.Model, e.Background)
		}
		if e.Background > 0 && e.Profile.LoadFactor <= 1 {
			t.Fatalf("%s: %d background apps but LoadFactor %v", e.Profile.Model, e.Background, e.Profile.LoadFactor)
		}
	}
	rate := float64(off) / float64(f.size)
	if rate < 0.01 || rate > 0.05 {
		t.Fatalf("animations-off rate %.3f, want ≈ %.3f", rate, animationsOffRate)
	}
	if len(fams) != len(familyTable()) {
		t.Fatalf("only %d of %d families represented at size 4000", len(fams), len(familyTable()))
	}
	if thermalArmed == 0 {
		t.Fatal("no device carries a thermal propensity")
	}
}

func TestGenerateRejectsBadSize(t *testing.T) {
	for _, size := range []int{0, -1} {
		if _, err := Generate(size, 42); err == nil {
			t.Fatalf("Generate(%d, 42) did not error", size)
		}
	}
}

// familyStat aggregates one family's slice of the fleet for manifest.
type familyStat struct {
	name    string
	count   int
	weight  float64
	sumD    time.Duration
	animOff int
	thermal float64
}

// manifest renders the fleet's composition as a deterministic table:
// per-family device counts, realized market share, the market-weighted
// mean analytical attack window, the animations-off population and the
// mean thermal propensity. It is the golden-tested generation artifact —
// byte-identical for a given (size, seed) at any worker count.
func manifest(f *Fleet) string {
	stats := map[string]*familyStat{}
	var order []string
	var offCount int
	var offWeight, meanD float64
	for _, e := range f.entries {
		famName := e.Profile.Family
		st, ok := stats[famName]
		if !ok {
			st = &familyStat{name: famName}
			stats[famName] = st
			order = append(order, famName)
		}
		st.count++
		st.weight += e.Weight
		st.sumD += e.Profile.ExpectedUpperBoundD()
		st.thermal += e.Faults.ThermalProb
		if e.Profile.AnimationsOff {
			st.animOff++
			offCount++
			offWeight += e.Weight
		}
		meanD += e.Weight * float64(e.Profile.ExpectedUpperBoundD())
	}
	sort.Strings(order)

	var b strings.Builder
	fmt.Fprintf(&b, "Device fleet manifest — %s\n", f.Name())
	fmt.Fprintf(&b, "%d devices, %d OEM families; weights sum to 1\n\n", f.size, len(order))
	fmt.Fprintf(&b, "%-10s %-10s %7s %8s %12s %9s %9s\n",
		"family", "vendor", "count", "share", "mean D", "anim-off", "thermal")
	for _, name := range order {
		st := stats[name]
		vendor := ""
		for _, fam := range familyTable() {
			if fam.name == name {
				vendor = fam.manufacturer
			}
		}
		meanFamD := time.Duration(int64(st.sumD) / int64(st.count)).Round(time.Millisecond)
		fmt.Fprintf(&b, "%-10s %-10s %7d %7.2f%% %12v %9d %8.2f%%\n",
			name, vendor, st.count, 100*st.weight, meanFamD, st.animOff,
			100*st.thermal/float64(st.count))
	}
	fmt.Fprintf(&b, "\nmarket-weighted mean analytical D bound: %v\n",
		time.Duration(meanD).Round(time.Millisecond))
	fmt.Fprintf(&b, "animations-off population: %d devices (%.2f%% of market share)\n",
		offCount, 100*offWeight)
	return b.String()
}
