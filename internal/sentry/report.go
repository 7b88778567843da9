package sentry

// Conformance scores a detection snapshot against a fleet's planted
// ground truth.
type Conformance struct {
	// TP/FP/FN classify detected devices against the planted attacker
	// set (pattern-agnostic: flagging a planted attacker counts as a
	// true positive even if the rule named the wrong pattern —
	// PatternMismatches counts those separately).
	TP, FP, FN int
	// PatternMismatches counts true positives whose detected pattern
	// differs from the planted one.
	PatternMismatches int
	// AccountingOK reports the exclusive device accounting identity
	// detected+clean+shed == devices_reported.
	AccountingOK bool
}

// Precision is TP/(TP+FP); 1 when nothing was detected.
func (c Conformance) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP/(TP+FN); 1 when nothing was planted.
func (c Conformance) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Perfect reports full recall with zero false positives and exact
// accounting — the conformance bar for an unshedded replay.
func (c Conformance) Perfect() bool {
	return c.FP == 0 && c.FN == 0 && c.PatternMismatches == 0 && c.AccountingOK
}

// Evaluate scores a snapshot against the fleet's truth.
func Evaluate(snap Snapshot, fl *Fleet) Conformance {
	c := Conformance{
		AccountingOK: snap.Detected+snap.Clean+snap.Shed == snap.DevicesReported,
	}
	detected := make(map[string]string, len(snap.Detections))
	for _, d := range snap.Detections {
		detected[d.Device] = d.Pattern
	}
	for dev, want := range detected {
		planted, ok := fl.Truth[dev]
		if !ok {
			c.FP++
			continue
		}
		c.TP++
		if planted != want {
			c.PatternMismatches++
		}
	}
	for dev := range fl.Truth {
		if _, ok := detected[dev]; !ok {
			c.FN++
		}
	}
	return c
}
