package experiment

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/geom"
	"repro/internal/sysserver"
	"repro/internal/sysui"
	"repro/internal/wm"
)

// resetRun is what one attack run leaves behind, the fields compared
// between a freshly assembled stack and a reset one.
type resetRun struct {
	outcome   sysui.Outcome
	err       string
	fired     uint64
	now       time.Duration
	digest    uint64
	bus       binder.Stats
	server    sysserver.Stats
	episodes  []sysui.Episode
	total     uint64
	plane     faults.Stats
	wm        wm.Stats
	windows   string
	toasts    string
	leftovers string
}

// dirtyApp is granted the overlay permission only by the dirty run.
const dirtyApp binder.ProcessID = "com.dirty.app"

// cleanRun resets nothing itself: st must be freshly assembled or reset
// for the run. It first fires one probe event at time zero, which only a
// trace left installed would see, then traces every fired event into an
// FNV-1a fold of its virtual time and label, runs the overlay attack at d
// for dur as attackOutcome does (under defend also with the toast-gap
// defense, so toasts of a toast-pressure profile read its per-app map),
// and records what the run left.
func cleanRun(st *sysserver.Stack, pl *faults.Plane, d, dur time.Duration, defend bool, until sysui.Outcome) resetRun {
	st.Clock.MustAfter(0, "test/probe", func() {})
	st.Clock.Step()
	const prime = 1099511628211
	digest := uint64(14695981039346656037)
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			digest ^= v & 0xff
			digest *= prime
			v >>= 8
		}
	}
	st.Clock.SetTrace(func(at time.Duration, label string) {
		fold(uint64(at))
		for i := 0; i < len(label); i++ {
			digest ^= uint64(label[i])
			digest *= prime
		}
	})
	if defend {
		st.Server.EnableEnhancedNotificationDefense(notifDelayT)
		st.Server.EnableToastGapDefense(300 * time.Millisecond)
	}
	o, err := runOverlayAttackOn(st, d, dur, 5*time.Second, false, until)
	r := resetRun{
		outcome:  o,
		err:      fmt.Sprint(err),
		fired:    st.Clock.Fired(),
		now:      st.Clock.Now(),
		digest:   digest,
		bus:      st.Bus.Stats(),
		server:   st.Server.Stats(),
		episodes: st.UI.Episodes(),
		total:    st.UI.EpisodesTotal(),
		plane:    pl.Stats(),
		wm:       st.WM.Stats(),
	}
	for _, w := range st.WM.ZOrder() {
		r.windows += fmt.Sprintf("%d %s %v %v %v %v;", w.ID, w.Owner, w.Type, w.Bounds, w.Alpha, w.AddedAt)
	}
	r.toasts = fmt.Sprintf("%+v queued %d", st.Server.Toasts(), st.Server.QueuedToasts("com.noise.app"))
	// What stale state would show: a permission or gesture the dirty run
	// left, an alert still in the drawer, the ANA delay it overrode, the
	// next transaction id.
	_, endErr := st.WM.EndGesture(1, geom.Pt(1, 1))
	gid, _, _ := st.WM.BeginGesture(geom.Pt(1, 1))
	txID, _ := st.Bus.Call(dirtyApp, binder.SystemServer, "test/probe", nil)
	r.leftovers = fmt.Sprintf("perm %v gesture %v/%d alert %v ana %v overlays %d tx %d",
		st.WM.HasOverlayPermission(dirtyApp), endErr != nil, gid,
		st.UI.ActiveAlert(AttackerApp), st.Server.ANADelay(), st.WM.OverlayCount(AttackerApp), txID)
	return r
}

// dirtyRun leaves st in the state Reset has to undo: a different profile
// and seed under the chaos plane pl, an invariant monitor, the IPC
// detector armed to terminate, every server override and defense on, a
// second app's permission, a live gesture, and the run stopped at the
// first visible alert pixel (Λ2) with events pending. It installs an
// observer on every hook the stack has; they count into *seen, which
// must not move once st is reset.
func dirtyRun(t *testing.T, st *sysserver.Stack, pl *faults.Plane, p device.Profile, seed int64, seen *int) {
	t.Helper()
	pl.Reset(faults.Chaos(), seed+1)
	if err := resetAttackStack(st, p, seed, sysserver.WithFaults(pl), sysserver.WithMonitor()); err != nil {
		t.Fatalf("dirty reset: %v", err)
	}
	det, err := defense.NewIPCDetector()
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Install(st, true); err != nil {
		t.Fatal(err)
	}
	st.Bus.Observe(func(binder.Transaction) { *seen++ })
	st.WM.OnWindowEvent(func(wm.WindowEvent) { *seen++ })
	st.WM.OnOverlayCountChange(func(binder.ProcessID, int, int) { *seen++ })
	st.WM.SetViolationHandler(func(string, string) { *seen++ })
	st.UI.SetViolationHandler(func(string, string) { *seen++ })
	st.Clock.SetTrace(func(time.Duration, string) { *seen++ })
	st.Server.EnableEnhancedNotificationDefense(notifDelayT)
	st.Server.EnableToastGapDefense(400 * time.Millisecond)
	st.Server.SetANADelay(70 * time.Millisecond)
	st.Server.SetToastFade(100 * time.Millisecond)
	st.Server.SetToastCapOverride(3)
	st.WM.GrantOverlayPermission(dirtyApp)
	st.Clock.MustAfter(30*time.Millisecond, "test/gesture", func() { st.WM.BeginGesture(geom.Pt(5, 5)) })
	if _, err := runOverlayAttackOn(st, 2*boundOf(p), 6*time.Second, 5*time.Second, false, sysui.Lambda2); err != nil {
		t.Fatalf("dirty run: %v", err)
	}
	if st.Clock.NextEventTime() == time.Duration(1<<63-1) {
		t.Fatalf("dirty run on %s left no event pending", p.Model)
	}
}

// TestResetMatchesAssemble is the differential test of Stack.Reset: over
// fleet-sampled devices, seeds, every named fault profile, with and
// without the §VII-B defense and with each early stop, an attack run on a
// stack reset after a dirty run must equal the same run on a freshly
// assembled stack in everything it leaves: outcome, events fired, final
// time, an FNV-1a fold of every fired event's (time, label), bus, server,
// window-manager and fault-plane stats, episodes, windows, toasts and the
// state a stale map would leak. The dirty run's observers must stay
// silent.
func TestResetMatchesAssemble(t *testing.T) {
	fl, err := fleet.Generate(40, 11)
	if err != nil {
		t.Fatal(err)
	}
	ents := fl.Entries()
	profiles := faults.Names()
	st, pl, dirtyPl := new(sysserver.Stack), new(faults.Plane), new(faults.Plane)
	runs := 0
	// Android 8, 9, 12, 10 and 11 devices of five families.
	for i, k := range []int{29, 2, 18, 9, 0} {
		ent, other := ents[k], ents[(k+4)%len(ents)]
		d := time.Duration(float64(boundOf(ent.Profile)) * 0.9)
		for j, name := range profiles {
			prof, err := faults.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, defend := range []bool{false, true} {
				for _, until := range []sysui.Outcome{0, sysui.Lambda2, sysui.Lambda5} {
					seed := int64(1000*i + 10*j + int(until))
					if defend {
						seed += 5
					}
					seen := 0
					dirtyRun(t, st, dirtyPl, other.Profile, seed+7, &seen)
					dirtySeen := seen

					// A zero profile runs unfaulted, as the fleet runs it.
					fresh, opts := faults.NewPlane(prof, seed+3), []sysserver.Option(nil)
					if !prof.Zero() {
						opts = []sysserver.Option{sysserver.WithFaults(fresh)}
					}
					fst, err := assembleAttackStack(ent.Profile, seed, opts...)
					if err != nil {
						t.Fatal(err)
					}
					want := cleanRun(fst, fresh, d, fleetAttackDur, defend, until)

					pl.Reset(prof, seed+3)
					var wantPlane *faults.Plane
					if opts != nil {
						opts[0], wantPlane = sysserver.WithFaults(pl), pl
					}
					if err := resetAttackStack(st, ent.Profile, seed, opts...); err != nil {
						t.Fatal(err)
					}
					if st.Monitor != nil || st.Faults != wantPlane {
						t.Fatalf("Reset kept the dirty run's monitor or plane")
					}
					got := cleanRun(st, pl, d, fleetAttackDur, defend, until)
					runs++

					where := fmt.Sprintf("%s seed %d %s defend %v until %v", ent.Profile.Model, seed, name, defend, until)
					if seen != dirtySeen {
						t.Fatalf("%s: the dirty run's observers saw %d callbacks after Reset", where, seen-dirtySeen)
					}
					if got.fired == 0 {
						t.Fatalf("%s: the run fired nothing", where)
					}
					if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
						t.Fatalf("%s: reset stack left\n%+v\nfresh stack left\n%+v", where, got, want)
					}
				}
			}
		}
	}
	t.Logf("%d runs on a reset stack matched a fresh one", runs)
}
