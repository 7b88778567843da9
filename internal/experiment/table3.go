package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ime"
	"repro/internal/input"
	"repro/internal/keyboard"
	"repro/internal/simrand"
	"repro/internal/stats"
	"repro/internal/sysserver"
	"repro/internal/sysui"
)

// PasswordLengths are the Table III password lengths.
func PasswordLengths() []int { return []int{4, 6, 8, 10, 12} }

// ErrorKind classifies one failed password-stealing trial per the paper's
// taxonomy (Section VI-C1).
type ErrorKind int

// The Table III error kinds.
const (
	// ErrorNone means the full password was recovered.
	ErrorNone ErrorKind = iota + 1
	// ErrorLength means the derived password is shorter than the entered
	// one (a mistouch swallowed a keystroke).
	ErrorLength
	// ErrorCapitalization means same length, letters differ only in case
	// (a shift press was missed).
	ErrorCapitalization
	// ErrorWrongKey means same length but one or more characters differ
	// (touch scatter decoded to a neighboring key).
	ErrorWrongKey
)

// String renders the kind.
func (e ErrorKind) String() string {
	switch e {
	case ErrorNone:
		return "success"
	case ErrorLength:
		return "length"
	case ErrorCapitalization:
		return "capitalization"
	case ErrorWrongKey:
		return "wrong-key"
	default:
		return fmt.Sprintf("ErrorKind(%d)", int(e))
	}
}

// ClassifyTrial compares the attacker's derived password against the
// password the participant was asked to type.
func ClassifyTrial(intended, stolen string) ErrorKind {
	switch {
	case stolen == intended:
		return ErrorNone
	case len(stolen) != len(intended):
		return ErrorLength
	case strings.EqualFold(stolen, intended):
		return ErrorCapitalization
	default:
		return ErrorWrongKey
	}
}

// StealTrialResult is the full outcome of one password-stealing run.
type StealTrialResult struct {
	// Stolen is the attacker's derived password.
	Stolen string
	// VictimWidget is the text left in the real password widget.
	VictimWidget string
	// WorstOutcome is the most visible alert outcome during the trial
	// (Λ1 means the user could not have seen any alert).
	WorstOutcome sysui.Outcome
	// MinToastAlpha is the lowest combined fake-keyboard opacity sampled
	// after the first fade-in; near-zero means a visible flicker.
	MinToastAlpha float64
	// D is the attacking window the stealer used.
	D time.Duration
	// DownsCaptured counts intercepted keystroke coordinates.
	DownsCaptured uint64
	// Keystrokes is the number of presses the participant performed.
	Keystrokes int
}

// RunStealTrial executes one complete password-stealing run: victim login
// screen + real IME + armed stealer, with the participant typing the
// password. Extra assembly options (fault plane, invariant monitor) pass
// through to the stack.
func RunStealTrial(p device.Profile, typist *input.Typist, victim apps.VictimApp, password string, seed int64, opts ...sysserver.Option) (StealTrialResult, error) {
	var res StealTrialResult
	st, err := assembleAttackStack(p, seed, opts...)
	if err != nil {
		return res, err
	}
	sess, err := victim.NewLoginSession(st.Clock, screenOf(p))
	if err != nil {
		return res, fmt.Errorf("experiment: login session: %w", err)
	}
	kb, err := keyboard.New(sess.KeyboardBounds)
	if err != nil {
		return res, fmt.Errorf("experiment: keyboard: %w", err)
	}
	if _, err := ime.Show(st, kb, sess.Activity); err != nil {
		return res, fmt.Errorf("experiment: show ime: %w", err)
	}
	// The attacker fingerprints the phone and picks its window from the
	// Table II bound (a conservative default on unmeasured phones).
	res.D = core.SelectAttackWindow(p)
	stealer, err := core.NewPasswordStealer(st, core.PasswordStealerConfig{
		App:      AttackerApp,
		Victim:   sess,
		Keyboard: kb,
		D:        res.D,
	})
	if err != nil {
		return res, fmt.Errorf("experiment: stealer: %w", err)
	}
	if err := stealer.Arm(); err != nil {
		return res, fmt.Errorf("experiment: arm stealer: %w", err)
	}

	// The user focuses the username, types a short username, then
	// focuses the password and types the study password.
	if err := sess.Activity.Focus(sess.Username); err != nil {
		return res, fmt.Errorf("experiment: focus username: %w", err)
	}
	for _, r := range "user01" {
		if err := sess.Activity.TypeRune(r); err != nil {
			return res, fmt.Errorf("experiment: type username: %w", err)
		}
	}
	var sink errSink
	st.Clock.MustAfter(500*time.Millisecond, "experiment/focusPassword", func() {
		if err := sess.Activity.Focus(sess.Password); err != nil {
			sink.setf("experiment: focus password: %w", err)
		}
	})
	ks, err := typist.PlanSession(kb, password, time.Second)
	if err != nil {
		return res, fmt.Errorf("experiment: plan password: %w", err)
	}
	if err := driveKeystrokes(st, ks, &sink); err != nil {
		return res, err
	}
	end, err := sessionEnd(ks)
	if err != nil {
		return res, err
	}
	// Sample the fake keyboard's combined alpha during the typing phase
	// (after the first fade-in has completed).
	res.MinToastAlpha = 2
	var sampleAlpha func()
	sampleAlpha = func() {
		if st.Clock.Now() > end {
			return
		}
		if a := st.WM.TopToastAlpha(AttackerApp); a < res.MinToastAlpha {
			res.MinToastAlpha = a
		}
		st.Clock.MustAfter(20*time.Millisecond, "experiment/alphaSample", sampleAlpha)
	}
	st.Clock.MustAfter(1500*time.Millisecond, "experiment/alphaSample", sampleAlpha)

	st.Clock.MustAfter(end, "experiment/stopStealer", stealer.Stop)
	if err := st.Clock.RunFor(end + 6*time.Second); err != nil {
		return res, fmt.Errorf("experiment: run: %w", err)
	}
	if err := sink.err; err != nil {
		return res, err
	}
	if err := stealer.Err(); err != nil {
		return res, fmt.Errorf("experiment: stealer: %w", err)
	}
	res.Stolen = stealer.StolenPassword()
	res.VictimWidget = sess.Password.Text()
	res.WorstOutcome = st.UI.WorstOutcome()
	res.DownsCaptured, _, _ = stealer.CaptureStats()
	res.Keystrokes = len(ks)
	if res.MinToastAlpha > 1 {
		res.MinToastAlpha = 1 // never sampled below the initial value
	}
	return res, nil
}

// TableIIIRow aggregates one password length's outcomes.
type TableIIIRow struct {
	Length               int
	Trials               int
	LengthErrors         int
	WrongKeyErrors       int
	CapitalizationErrors int
	Successes            int
	// Skipped counts trials that failed outright (panic or error inside
	// the trial) and were excluded; always 0 on a healthy run.
	Skipped int
}

// SuccessRate reports the percentage of fully recovered passwords.
func (r TableIIIRow) SuccessRate() float64 { return stats.Ratio(r.Successes, r.Trials) }

// stealTrialRecord is the journaled outcome of one Table III steal trial.
// The password itself is regenerated deterministically on replay (the
// generator stream must advance either way), so only the attacker's output
// and the skip flag need to persist.
type stealTrialRecord struct {
	Skipped bool   `json:"skipped,omitempty"`
	Stolen  string `json:"stolen"`
}

// stealTrialMeta is the per-trial context table3Exp.Trials stashes for
// Render: which row the trial belongs to and which password the
// participant was asked to type (needed to classify the stolen one).
type stealTrialMeta struct {
	length      int
	participant int
	password    string
}

// table3Exp regenerates Table III: for each password length, each of the
// 30 participants enters perParticipant random passwords spanning the
// sub-keyboards (10 in the paper).
type table3Exp struct {
	perParticipant int
	meta           []stealTrialMeta
}

func (e *table3Exp) Name() string   { return "table3" }
func (e *table3Exp) Params() string { return fmt.Sprintf("trials=%d", e.perParticipant) }

func (e *table3Exp) Trials(seed int64) ([]Trial, error) {
	if e.perParticipant <= 0 {
		return nil, fmt.Errorf("experiment: non-positive trials per participant %d", e.perParticipant)
	}
	root := simrand.New(seed)
	typists, err := input.Participants(root.Derive("typists"), NumParticipants)
	if err != nil {
		return nil, fmt.Errorf("experiment: participants: %w", err)
	}
	bofa, ok := apps.ByName("Bank of America")
	if !ok {
		return nil, fmt.Errorf("experiment: BofA app missing")
	}
	pwRNG := root.Derive("passwords")
	e.meta = e.meta[:0]
	var trials []Trial
	for li, length := range PasswordLengths() {
		for i := 0; i < NumParticipants; i++ {
			p := participantDevice(i)
			for tr := 0; tr < e.perParticipant; tr++ {
				li, length, i, tr := li, length, i, tr
				// Every shared-stream draw happens here, in the exact order
				// the old sequential runner performed them — password first,
				// then the typing stream — so the trial closures are
				// independent and order-insensitive.
				password := input.RandomPassword(pwRNG, length)
				typist, err := typists[i].WithStream(root.DeriveIndexed("plan",
					(li*NumParticipants+i)*e.perParticipant+tr))
				if err != nil {
					return nil, fmt.Errorf("experiment: trial typist: %w", err)
				}
				e.meta = append(e.meta, stealTrialMeta{length: length, participant: i, password: password})
				trials = append(trials, NewTrial(
					fmt.Sprintf("table3 seed=%d trials=%d len=%d p=%d t=%d", seed, e.perParticipant, length, i, tr),
					fmt.Sprintf("steal trial (len %d, participant %d, trial %d)", length, i, tr),
					func() (stealTrialRecord, error) {
						var trial StealTrialResult
						err := safeTrial(fmt.Sprintf("steal trial (len %d, participant %d, trial %d)", length, i, tr), func() error {
							var terr error
							trial, terr = RunStealTrial(p, typist, bofa, password,
								seed+int64(li*100000+i*1000+tr))
							return terr
						})
						if err != nil {
							// One bad trial must not kill the sweep: record
							// the skip and move on.
							return stealTrialRecord{Skipped: true}, nil
						}
						return stealTrialRecord{Stolen: trial.Stolen}, nil
					}))
			}
		}
	}
	return trials, nil
}

// rows aggregates the per-trial records into the Table III rows.
func (e *table3Exp) rows(results []any) []TableIIIRow {
	byLength := make(map[int]*TableIIIRow)
	out := make([]TableIIIRow, len(PasswordLengths()))
	for li, length := range PasswordLengths() {
		out[li] = TableIIIRow{Length: length}
		byLength[length] = &out[li]
	}
	for ti, m := range e.meta {
		rec := Res[stealTrialRecord](results, ti)
		row := byLength[m.length]
		if rec.Skipped {
			row.Skipped++
			continue
		}
		row.Trials++
		switch ClassifyTrial(m.password, rec.Stolen) {
		case ErrorNone:
			row.Successes++
		case ErrorLength:
			row.LengthErrors++
		case ErrorCapitalization:
			row.CapitalizationErrors++
		case ErrorWrongKey:
			row.WrongKeyErrors++
		}
	}
	return out
}

func (e *table3Exp) Render(results []any) (Output, error) {
	rows := e.rows(results)
	skipped := 0
	for _, r := range rows {
		skipped += r.Skipped
	}
	return Output{Text: RenderTableIII(rows), Skipped: skipped}, nil
}

// RenderTableIII formats the table next to the paper's numbers.
func RenderTableIII(rows []TableIIIRow) string {
	paper := map[int]struct {
		length, wrong, caps int
		rate                float64
	}{
		4:  {10, 7, 6, 92.3},
		6:  {15, 8, 7, 90.0},
		8:  {19, 8, 9, 88.0},
		10: {23, 9, 9, 86.3},
		12: {26, 9, 12, 84.3},
	}
	var sb strings.Builder
	sb.WriteString("Table III — password stealing success v.s. length\n")
	sb.WriteString("  len  trials  lenErr  wrongKey  capErr  success   (paper: lenErr wrongKey capErr success)\n")
	skipped := 0
	for _, r := range rows {
		p := paper[r.Length]
		fmt.Fprintf(&sb, "  %3d  %6d  %6d  %8d  %6d  %6.1f%%   (paper: %6d %8d %6d %6.1f%%)\n",
			r.Length, r.Trials, r.LengthErrors, r.WrongKeyErrors, r.CapitalizationErrors,
			r.SuccessRate(), p.length, p.wrong, p.caps, p.rate)
		skipped += r.Skipped
	}
	if skipped > 0 {
		fmt.Fprintf(&sb, "  WARNING: %d trials failed and were skipped\n", skipped)
	}
	return sb.String()
}
