package sysui

import (
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/simclock"
	"repro/internal/simrand"
)

const evilApp binder.ProcessID = "com.evil.app"

func newUI(t *testing.T) (*SystemUI, *binder.Bus, *simclock.Clock) {
	t.Helper()
	clock := simclock.New()
	bus, err := binder.NewBus(binder.Config{Clock: clock, RNG: simrand.New(1)})
	if err != nil {
		t.Fatalf("NewBus: %v", err)
	}
	ui, err := New(Config{
		Clock:             clock,
		Bus:               bus,
		RNG:               simrand.New(2),
		Tv:                simrand.Constant(8),
		NotifViewHeightPx: 72,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return ui, bus, clock
}

func post(t *testing.T, bus *binder.Bus, app binder.ProcessID) {
	t.Helper()
	if _, err := bus.Call(binder.SystemServer, binder.SystemUI, MethodPostOverlayAlert, app); err != nil {
		t.Fatalf("post alert: %v", err)
	}
}

func remove(t *testing.T, bus *binder.Bus, app binder.ProcessID) {
	t.Helper()
	if _, err := bus.Call(binder.SystemServer, binder.SystemUI, MethodRemoveOverlayAlert, app); err != nil {
		t.Fatalf("remove alert: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	clock := simclock.New()
	bus, err := binder.NewBus(binder.Config{Clock: clock, RNG: simrand.New(1)})
	if err != nil {
		t.Fatalf("NewBus: %v", err)
	}
	if _, err := New(Config{Bus: bus, RNG: simrand.New(1), NotifViewHeightPx: 72}); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := New(Config{Clock: clock, RNG: simrand.New(1), NotifViewHeightPx: 72}); err == nil {
		t.Fatal("nil bus accepted")
	}
	if _, err := New(Config{Clock: clock, Bus: bus, NotifViewHeightPx: 72}); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := New(Config{Clock: clock, Bus: bus, RNG: simrand.New(1)}); err == nil {
		t.Fatal("zero view height accepted")
	}
}

// TestAlertRunsToLambda5 lets the alert play out fully: the episode must
// reach Λ5 with the status-bar icon shown.
func TestAlertRunsToLambda5(t *testing.T) {
	ui, bus, clock := newUI(t)
	post(t, bus, evilApp)
	if err := clock.RunFor(2 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	eps := ui.Episodes()
	if len(eps) != 1 {
		t.Fatalf("episodes = %d, want 1", len(eps))
	}
	ep := eps[0]
	if got := ep.Classify(); got != Lambda5 {
		t.Fatalf("outcome = %v, want Λ5", got)
	}
	if !ep.Active {
		t.Fatal("alert should still be active")
	}
	if ep.PeakVisiblePx != 72 {
		t.Fatalf("peak visible = %d px, want 72", ep.PeakVisiblePx)
	}
	if !ep.IconShown {
		t.Fatal("status icon not shown")
	}
	if !ui.ActiveAlert(evilApp) {
		t.Fatal("ActiveAlert = false")
	}
}

// TestEarlyRemoveYieldsLambda1 removes the alert before the view is even
// constructed (within Tv): nothing renders, Λ1.
func TestEarlyRemoveYieldsLambda1(t *testing.T) {
	ui, bus, clock := newUI(t)
	post(t, bus, evilApp)
	clock.MustAfter(4*time.Millisecond, "remove", func() { remove(t, bus, evilApp) })
	if err := clock.RunFor(2 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	eps := ui.Episodes()
	if len(eps) != 1 {
		t.Fatalf("episodes = %d, want 1", len(eps))
	}
	ep := eps[0]
	if got := ep.Classify(); got != Lambda1 {
		t.Fatalf("outcome = %v, want Λ1", got)
	}
	if ep.Active {
		t.Fatal("alert still active after removal")
	}
	if ep.RemovedAt == 0 {
		t.Fatal("RemovedAt not recorded")
	}
	if ui.ActiveAlert(evilApp) {
		t.Fatal("ActiveAlert = true after removal")
	}
}

// TestRemoveDuringInvisibleAnimationYieldsLambda1: the animation has
// started but not yet rendered a visible pixel (first ~30 ms on a 72 px
// view). Removal must still yield Λ1.
func TestRemoveDuringInvisibleAnimationYieldsLambda1(t *testing.T) {
	ui, bus, clock := newUI(t)
	post(t, bus, evilApp)
	// Tv = 8ms, so the animation starts at ~8ms; at 25ms two frames have
	// rendered but ⌊72·completeness⌋ = 0.
	clock.MustAfter(25*time.Millisecond, "remove", func() { remove(t, bus, evilApp) })
	if err := clock.RunFor(2 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	ep := ui.Episodes()[0]
	if ep.PeakVisiblePx != 0 {
		t.Fatalf("peak visible = %d px, want 0", ep.PeakVisiblePx)
	}
	if got := ep.Classify(); got != Lambda1 {
		t.Fatalf("outcome = %v, want Λ1", got)
	}
}

// TestMidAnimationRemoveYieldsLambda2: removal at 150 ms leaves the view
// partially rendered and then retracts it.
func TestMidAnimationRemoveYieldsLambda2(t *testing.T) {
	ui, bus, clock := newUI(t)
	post(t, bus, evilApp)
	clock.MustAfter(150*time.Millisecond, "remove", func() { remove(t, bus, evilApp) })
	if err := clock.RunFor(3 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	ep := ui.Episodes()[0]
	if got := ep.Classify(); got != Lambda2 {
		t.Fatalf("outcome = %v (peak %d px, completeness %.3f), want Λ2",
			got, ep.PeakVisiblePx, ep.PeakCompleteness)
	}
	if ep.Active {
		t.Fatal("alert still active after retraction")
	}
	if ep.PeakCompleteness >= 1 {
		t.Fatal("view completed despite mid-animation removal")
	}
}

// TestRemoveAfterViewBeforeMessageYieldsLambda3: removal right after the
// slide completes (Tv+360ms) but before the message renders.
func TestRemoveAfterViewBeforeMessageYieldsLambda3(t *testing.T) {
	ui, bus, clock := newUI(t)
	post(t, bus, evilApp)
	clock.MustAfter(370*time.Millisecond, "remove", func() { remove(t, bus, evilApp) })
	if err := clock.RunFor(3 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	ep := ui.Episodes()[0]
	if got := ep.Classify(); got != Lambda3 {
		t.Fatalf("outcome = %v (msg %.2f), want Λ3", got, ep.MessageProgress)
	}
}

// TestRemoveDuringMessageYieldsLambda4: removal while the message renders.
func TestRemoveDuringMessageYieldsLambda4(t *testing.T) {
	ui, bus, clock := newUI(t)
	post(t, bus, evilApp)
	// Slide ends at 8+360=368 ms; text layout runs to 428 ms; the
	// message then draws until 508 ms. Remove mid-draw at 460 ms.
	clock.MustAfter(460*time.Millisecond, "remove", func() { remove(t, bus, evilApp) })
	if err := clock.RunFor(3 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	ep := ui.Episodes()[0]
	if got := ep.Classify(); got != Lambda4 {
		t.Fatalf("outcome = %v (msg %.2f), want Λ4", got, ep.MessageProgress)
	}
	if ep.MessageProgress <= 0 || ep.MessageProgress >= 1 {
		t.Fatalf("message progress = %v, want in (0,1)", ep.MessageProgress)
	}
}

func TestDuplicatePostIgnored(t *testing.T) {
	ui, bus, clock := newUI(t)
	post(t, bus, evilApp)
	post(t, bus, evilApp)
	if err := clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := len(ui.Episodes()); got != 1 {
		t.Fatalf("episodes = %d, want 1 (duplicate post ignored)", got)
	}
}

func TestRemoveWithoutAlertIgnored(t *testing.T) {
	ui, bus, clock := newUI(t)
	remove(t, bus, evilApp)
	if err := clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if len(ui.Episodes()) != 0 {
		t.Fatal("phantom episode created")
	}
}

func TestRepeatedCyclesProduceEpisodes(t *testing.T) {
	ui, bus, clock := newUI(t)
	// Three post/early-remove cycles.
	for i := 0; i < 3; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		clock.MustAfter(at, "post", func() { post(t, bus, evilApp) })
		clock.MustAfter(at+5*time.Millisecond, "remove", func() { remove(t, bus, evilApp) })
	}
	if err := clock.RunFor(2 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	eps := ui.Episodes()
	if len(eps) != 3 {
		t.Fatalf("episodes = %d, want 3", len(eps))
	}
	if got := ui.WorstOutcome(); got != Lambda1 {
		t.Fatalf("WorstOutcome = %v, want Λ1", got)
	}
}

func TestWorstOutcomeAggregates(t *testing.T) {
	ui, bus, clock := newUI(t)
	// Episode 1: early removal (Λ1). Episode 2: plays to Λ5.
	post(t, bus, evilApp)
	clock.MustAfter(5*time.Millisecond, "rm", func() { remove(t, bus, evilApp) })
	clock.MustAfter(100*time.Millisecond, "post2", func() { post(t, bus, "other.app") })
	if err := clock.RunFor(3 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := ui.WorstOutcome(); got != Lambda5 {
		t.Fatalf("WorstOutcome = %v, want Λ5", got)
	}
}

// TestEpisodeHistoryBounded is the soak property: a long draw-and-destroy
// run keeps memory bounded while the aggregates stay exact.
func TestEpisodeHistoryBounded(t *testing.T) {
	clock := simclock.New()
	bus, err := binder.NewBus(binder.Config{Clock: clock, RNG: simrand.New(1)})
	if err != nil {
		t.Fatalf("NewBus: %v", err)
	}
	ui, err := New(Config{
		Clock: clock, Bus: bus, RNG: simrand.New(2),
		Tv: simrand.Constant(8), NotifViewHeightPx: 72,
		EpisodeHistory: 16,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const cycles = 200
	for i := 0; i < cycles; i++ {
		at := time.Duration(i) * 50 * time.Millisecond
		clock.MustAfter(at, "post", func() { post(t, bus, evilApp) })
		clock.MustAfter(at+5*time.Millisecond, "remove", func() { remove(t, bus, evilApp) })
	}
	if err := clock.RunFor(time.Duration(cycles)*50*time.Millisecond + 5*time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := len(ui.Episodes()); got > 16 {
		t.Fatalf("retained %d episodes, cap 16", got)
	}
	if got := ui.EpisodesTotal(); got != cycles {
		t.Fatalf("EpisodesTotal = %d, want %d", got, cycles)
	}
	if got := ui.WorstOutcome(); got != Lambda1 {
		t.Fatalf("WorstOutcome = %v, want Λ1 (exact across trimming)", got)
	}
}

func TestNegativeEpisodeHistoryRejected(t *testing.T) {
	clock := simclock.New()
	bus, err := binder.NewBus(binder.Config{Clock: clock, RNG: simrand.New(1)})
	if err != nil {
		t.Fatalf("NewBus: %v", err)
	}
	if _, err := New(Config{
		Clock: clock, Bus: bus, RNG: simrand.New(2),
		Tv: simrand.Constant(8), NotifViewHeightPx: 72,
		EpisodeHistory: -1,
	}); err == nil {
		t.Fatal("negative history accepted")
	}
}

func TestDrawerEntries(t *testing.T) {
	ui, bus, clock := newUI(t)
	if ui.ActiveAlert(evilApp) {
		t.Fatal("drawer lists an alert before any post")
	}
	post(t, bus, evilApp)
	post(t, bus, "other.app")
	if err := clock.RunFor(2 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if !ui.ActiveAlert(evilApp) || !ui.ActiveAlert("other.app") {
		t.Fatal("drawer misses a posted alert")
	}
	remove(t, bus, evilApp)
	if err := clock.RunFor(2 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if ui.ActiveAlert(evilApp) || !ui.ActiveAlert("other.app") {
		t.Fatal("drawer after removing evil's alert must list only other.app")
	}
}

func TestOutcomeString(t *testing.T) {
	tests := []struct {
		o    Outcome
		want string
	}{
		{Lambda1, "Λ1"}, {Lambda2, "Λ2"}, {Lambda3, "Λ3"},
		{Lambda4, "Λ4"}, {Lambda5, "Λ5"}, {Outcome(9), "Outcome(9)"},
	}
	for _, tt := range tests {
		if got := tt.o.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.o), got, tt.want)
		}
	}
}

func TestOutcomeOrdering(t *testing.T) {
	if !(Lambda1 < Lambda2 && Lambda2 < Lambda3 && Lambda3 < Lambda4 && Lambda4 < Lambda5) {
		t.Fatal("Λ outcomes not ordered")
	}
}

func TestMalformedPayloadIgnored(t *testing.T) {
	ui, bus, clock := newUI(t)
	if _, err := bus.Call(binder.SystemServer, binder.SystemUI, MethodPostOverlayAlert, 42); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if err := clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if len(ui.Episodes()) != 0 {
		t.Fatal("malformed payload created an episode")
	}
}
