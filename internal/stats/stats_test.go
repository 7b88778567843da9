package stats

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	got, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || got != 2.5 {
		t.Fatalf("Mean = (%v,%v), want 2.5", got, err)
	}
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Fatal("negative percentile accepted")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("percentile > 100 accepted")
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty sample accepted")
	}
	// Single element: every percentile is that element.
	if got, err := Percentile([]float64{7}, 83); err != nil || got != 7 {
		t.Fatalf("Percentile single = (%v,%v)", got, err)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	got, err := Percentile([]float64{0, 10}, 50)
	if err != nil || got != 5 {
		t.Fatalf("Percentile = (%v,%v), want 5", got, err)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatalf("Percentile: %v", err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestBox(t *testing.T) {
	bp, err := Box([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("Box: %v", err)
	}
	if bp.Min != 1 || bp.Median != 3 || bp.Max != 5 || bp.Mean != 3 || bp.N != 5 {
		t.Fatalf("Box = %+v", bp)
	}
	if bp.Q1 != 2 || bp.Q3 != 4 {
		t.Fatalf("quartiles = %v,%v", bp.Q1, bp.Q3)
	}
	if _, err := Box(nil); !errors.Is(err, ErrEmpty) {
		t.Fatal("Box(nil) accepted")
	}
	if s := bp.String(); s == "" {
		t.Fatal("empty String")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(44, 50); got != 88 {
		t.Fatalf("Ratio = %v, want 88", got)
	}
	if got := Ratio(1, 0); got != 0 {
		t.Fatalf("Ratio with zero total = %v, want 0", got)
	}
}

// Property: box plot numbers are ordered min ≤ q1 ≤ median ≤ q3 ≤ max and
// bracket the mean.
func TestPropertyBoxOrdered(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		bp, err := Box(xs)
		if err != nil {
			return false
		}
		ordered := bp.Min <= bp.Q1 && bp.Q1 <= bp.Median && bp.Median <= bp.Q3 && bp.Q3 <= bp.Max
		bracket := bp.Mean >= bp.Min && bp.Mean <= bp.Max
		return ordered && bracket
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p and matches sort order extremes.
func TestPropertyPercentileMonotone(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v, err := Percentile(xs, p)
			if err != nil || v < prev {
				return false
			}
			prev = v
		}
		sorted := make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
		lo, err1 := Percentile(xs, 0)
		hi, err2 := Percentile(xs, 100)
		return err1 == nil && err2 == nil && lo == sorted[0] && hi == sorted[len(sorted)-1]
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
