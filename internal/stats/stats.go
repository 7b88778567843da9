// Package stats provides the small summary-statistics toolkit the
// experiment harness uses to report results the way the paper does:
// means, percentiles and box-plot five-number summaries (Fig. 7 is a box
// plot over 30 participants).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic of an empty sample is requested.
var ErrEmpty = errors.New("stats: empty sample")

// Mean computes the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Percentile computes the p-th percentile (0 ≤ p ≤ 100) with linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of [0,100]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// BoxPlot is a five-number summary plus the mean, the shape of each column
// of the paper's Fig. 7.
type BoxPlot struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// Box computes the five-number summary of a sample.
func Box(xs []float64) (BoxPlot, error) {
	if len(xs) == 0 {
		return BoxPlot{}, ErrEmpty
	}
	var (
		bp  BoxPlot
		err error
	)
	if bp.Min, err = Percentile(xs, 0); err != nil {
		return BoxPlot{}, err
	}
	if bp.Q1, err = Percentile(xs, 25); err != nil {
		return BoxPlot{}, err
	}
	if bp.Median, err = Percentile(xs, 50); err != nil {
		return BoxPlot{}, err
	}
	if bp.Q3, err = Percentile(xs, 75); err != nil {
		return BoxPlot{}, err
	}
	if bp.Max, err = Percentile(xs, 100); err != nil {
		return BoxPlot{}, err
	}
	if bp.Mean, err = Mean(xs); err != nil {
		return BoxPlot{}, err
	}
	bp.N = len(xs)
	return bp, nil
}

// String renders the summary compactly.
func (b BoxPlot) String() string {
	return fmt.Sprintf("min %.1f  q1 %.1f  med %.1f  q3 %.1f  max %.1f  mean %.1f (n=%d)",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean, b.N)
}

// Ratio formats a count as a percentage of a total.
func Ratio(count, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(count) / float64(total)
}
