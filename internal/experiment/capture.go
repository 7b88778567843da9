package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/ime"
	"repro/internal/input"
	"repro/internal/keyboard"
	"repro/internal/simrand"
	"repro/internal/stats"
	"repro/internal/sysserver"
	"repro/internal/uikit"
	"repro/internal/wm"
)

// CaptureDs are the attacking-window values of the Fig. 7 sweep.
func CaptureDs() []time.Duration {
	return []time.Duration{
		50 * time.Millisecond, 75 * time.Millisecond, 100 * time.Millisecond,
		125 * time.Millisecond, 150 * time.Millisecond, 175 * time.Millisecond,
		200 * time.Millisecond,
	}
}

// capturePerParticipantChars is the Fig. 7 protocol: 10 random strings of
// 10 characters each per participant per D.
const (
	captureStrings   = 10
	captureStringLen = 10
)

// ParticipantCapture is one participant's capture rate at one D.
type ParticipantCapture struct {
	// Participant indexes the study participant (0..29).
	Participant int
	// Model and VersionMajor identify the participant's phone.
	Model        string
	VersionMajor int
	// Rate is the touch-event capture percentage (0..100).
	Rate float64
}

// CaptureStudy holds the full Fig. 7/Fig. 8 dataset.
type CaptureStudy struct {
	Ds      []time.Duration
	Results map[time.Duration][]ParticipantCapture
}

// runCaptureTrial runs one participant's typing session on the testing app
// (an activity, the real IME, and the draw-and-destroy overlay attack over
// the keyboard) and reports the percentage of touch events the malicious
// overlays captured completely (DOWN and UP).
func runCaptureTrial(p device.Profile, typist *input.Typist, d time.Duration, rng *simrand.Source, seed int64, opts ...sysserver.Option) (float64, error) {
	st, err := assembleAttackStack(p, seed, opts...)
	if err != nil {
		return 0, err
	}
	screen := screenOf(p)
	root := uikit.NewView("test_root", "LinearLayout", screen)
	field := root.AddChild(uikit.NewView("test_input", "EditText",
		geom.RectWH(screen.Min.X+40, screen.Min.Y+400, screen.W()-80, 120)))
	act, err := uikit.NewActivity(st.Clock, "com.test.app", root)
	if err != nil {
		return 0, fmt.Errorf("experiment: test activity: %w", err)
	}
	if err := act.Focus(field); err != nil {
		return 0, fmt.Errorf("experiment: focus field: %w", err)
	}
	kbBounds := geom.RectWH(screen.Min.X, screen.Min.Y+0.625*screen.H(), screen.W(), 0.375*screen.H())
	kb, err := keyboard.New(kbBounds)
	if err != nil {
		return 0, fmt.Errorf("experiment: keyboard: %w", err)
	}
	if _, err := ime.Show(st, kb, act); err != nil {
		return 0, fmt.Errorf("experiment: show ime: %w", err)
	}

	ups := 0
	atk, err := core.NewOverlayAttack(st, core.OverlayAttackConfig{
		App:    AttackerApp,
		D:      d,
		Bounds: kbBounds,
		OnTouch: func(ev wm.TouchEvent) {
			if ev.Action == wm.ActionUp {
				ups++
			}
		},
	})
	if err != nil {
		return 0, fmt.Errorf("experiment: overlay attack: %w", err)
	}
	if err := atk.Start(); err != nil {
		return 0, fmt.Errorf("experiment: start attack: %w", err)
	}

	// Ten 10-character random strings, each starting half a second after
	// the previous ends.
	total := 0
	start := time.Second
	var all []input.Keystroke
	for s := 0; s < captureStrings; s++ {
		ks, err := typist.PlanSession(kb, input.RandomString(rng, captureStringLen), start)
		if err != nil {
			return 0, fmt.Errorf("experiment: plan string %d: %w", s, err)
		}
		all = append(all, ks...)
		total += len(ks)
		start = ks[len(ks)-1].UpAt + 500*time.Millisecond
	}
	var sink errSink
	if err := driveKeystrokes(st, all, &sink); err != nil {
		return 0, err
	}
	end, err := sessionEnd(all)
	if err != nil {
		return 0, err
	}
	st.Clock.MustAfter(end, "experiment/stopAttack", atk.Stop)
	if err := st.Clock.RunFor(end + 5*time.Second); err != nil {
		return 0, fmt.Errorf("experiment: run: %w", err)
	}
	if sink.err != nil {
		return 0, sink.err
	}
	if err := atk.Err(); err != nil {
		return 0, err
	}
	return stats.Ratio(ups, total), nil
}

// captureExp runs the Fig. 7/Fig. 8 user study: for every D in the sweep,
// each of the 30 participants types 100 random characters on their own
// phone while the attack runs. The fig7 and fig8 registry entries are the
// same experiment rendered two ways, so they share one trial set — and,
// via JournalName, one journal.
type captureExp struct {
	fig8 bool
	ds   []time.Duration
}

func (e *captureExp) Name() string {
	if e.fig8 {
		return "fig8"
	}
	return "fig7"
}

// JournalName makes fig7 and fig8 share one journal identity: both render
// the same 210-trial capture study.
func (e *captureExp) JournalName() string { return "capture" }

func (e *captureExp) Params() string { return "" }

func (e *captureExp) Trials(seed int64) ([]Trial, error) {
	root := simrand.New(seed)
	typists, err := input.Participants(root.Derive("typists"), NumParticipants)
	if err != nil {
		return nil, fmt.Errorf("experiment: participants: %w", err)
	}
	e.ds = CaptureDs()
	trials := make([]Trial, 0, len(e.ds)*NumParticipants)
	for di, d := range e.ds {
		for i := 0; i < NumParticipants; i++ {
			di, d, i := di, d, i
			p := participantDevice(i)
			// Every shared-stream derivation happens here, in the exact
			// order the old sequential runner performed them, so the trial
			// closures are independent and the driver may run them in any
			// order (or replay them from a journal) without stream drift.
			strRNG := root.DeriveIndexed("strings", di*NumParticipants+i)
			typist, err := typists[i].WithStream(root.DeriveIndexed("plan", di*NumParticipants+i))
			if err != nil {
				return nil, fmt.Errorf("experiment: trial typist: %w", err)
			}
			label := fmt.Sprintf("capture trial (D=%v, participant %d)", d, i)
			trials = append(trials, NewTrial(
				fmt.Sprintf("capture seed=%d d=%dms p=%d", seed, d/time.Millisecond, i),
				label,
				func() (float64, error) {
					var rate float64
					err := safeTrial(label, func() error {
						var terr error
						rate, terr = runCaptureTrial(p, typist, d, strRNG,
							seed+int64(di*1000+i))
						return terr
					})
					return rate, err
				}))
		}
	}
	return trials, nil
}

// study reassembles the CaptureStudy dataset from the per-trial rates.
func (e *captureExp) study(results []any) *CaptureStudy {
	study := &CaptureStudy{Ds: e.ds, Results: make(map[time.Duration][]ParticipantCapture)}
	for di, d := range e.ds {
		for i := 0; i < NumParticipants; i++ {
			p := participantDevice(i)
			study.Results[d] = append(study.Results[d], ParticipantCapture{
				Participant:  i,
				Model:        p.Model,
				VersionMajor: p.Version.Major,
				Rate:         Res[float64](results, di*NumParticipants+i),
			})
		}
	}
	return study
}

func (e *captureExp) Render(results []any) (Output, error) {
	study := e.study(results)
	if e.fig8 {
		series, err := study.Fig8()
		if err != nil {
			return Output{}, err
		}
		return Output{Text: RenderFig8(study.Ds, series)}, nil
	}
	rows, err := study.Fig7()
	if err != nil {
		return Output{}, err
	}
	modelRows, err := Fig7Model()
	if err != nil {
		return Output{}, err
	}
	return Output{Text: RenderFig7(rows) + "\n" + RenderFig7Model(modelRows, rows)}, nil
}

// Fig7Row is one box-plot column of Figure 7.
type Fig7Row struct {
	D   time.Duration
	Box stats.BoxPlot
}

// Fig7 summarizes the study as Figure 7's box plot series.
func (s *CaptureStudy) Fig7() ([]Fig7Row, error) {
	out := make([]Fig7Row, 0, len(s.Ds))
	for _, d := range s.Ds {
		rates := make([]float64, 0, len(s.Results[d]))
		for _, r := range s.Results[d] {
			rates = append(rates, r.Rate)
		}
		box, err := stats.Box(rates)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig7 box for D=%v: %w", d, err)
		}
		out = append(out, Fig7Row{D: d, Box: box})
	}
	return out, nil
}

// Fig8Series is one Android version's mean capture rate across the D
// sweep.
type Fig8Series struct {
	VersionMajor int
	// MeanByD follows the order of CaptureDs.
	MeanByD []float64
}

// Fig8 groups the study by Android version, the Figure 8 view.
func (s *CaptureStudy) Fig8() ([]Fig8Series, error) {
	byVersion := make(map[int][]float64) // version → per-D sums
	counts := make(map[int][]int)
	for di, d := range s.Ds {
		for _, r := range s.Results[d] {
			if byVersion[r.VersionMajor] == nil {
				byVersion[r.VersionMajor] = make([]float64, len(s.Ds))
				counts[r.VersionMajor] = make([]int, len(s.Ds))
			}
			byVersion[r.VersionMajor][di] += r.Rate
			counts[r.VersionMajor][di]++
		}
	}
	versions := make([]int, 0, len(byVersion))
	for v := range byVersion {
		versions = append(versions, v)
	}
	sort.Ints(versions)
	out := make([]Fig8Series, 0, len(versions))
	for _, v := range versions {
		means := make([]float64, len(s.Ds))
		for di := range s.Ds {
			if n := counts[v][di]; n > 0 {
				means[di] = byVersion[v][di] / float64(n)
			}
		}
		out = append(out, Fig8Series{VersionMajor: v, MeanByD: means})
	}
	return out, nil
}

// RenderFig7 formats the box-plot rows; the paper's mean series is
// 61.0, 79.8, 86.7, 89.0, 91.0, 92.8, 92.8.
func RenderFig7(rows []Fig7Row) string {
	var sb strings.Builder
	sb.WriteString("Fig. 7 — touch event capture rate v.s. D (30 participants)\n")
	paperMeans := []float64{61.0, 79.8, 86.7, 89.0, 91.0, 92.8, 92.8}
	for i, r := range rows {
		paper := ""
		if i < len(paperMeans) {
			paper = fmt.Sprintf("  (paper mean %.1f)", paperMeans[i])
		}
		fmt.Fprintf(&sb, "  D = %3d ms: %s%s\n", r.D/time.Millisecond, r.Box, paper)
	}
	return sb.String()
}

// RenderFig8 formats the per-version series.
func RenderFig8(ds []time.Duration, series []Fig8Series) string {
	var sb strings.Builder
	sb.WriteString("Fig. 8 — capture rate v.s. D by Android version\n  version ")
	for _, d := range ds {
		fmt.Fprintf(&sb, "%7dms", d/time.Millisecond)
	}
	sb.WriteString("\n")
	for _, s := range series {
		fmt.Fprintf(&sb, "  %-8d", s.VersionMajor)
		for _, m := range s.MeanByD {
			fmt.Fprintf(&sb, "%8.1f%%", m)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
