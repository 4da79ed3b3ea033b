package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestGmean(t *testing.T) {
	if got := Gmean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Gmean(1,4) = %v, want 2", got)
	}
	if got := Gmean([]float64{3}); math.Abs(got-3) > 1e-12 {
		t.Errorf("Gmean(3) = %v, want 3", got)
	}
}

func TestGmeanRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive value did not panic")
		}
	}()
	Gmean([]float64{1, 0})
}

func TestArgMin(t *testing.T) {
	iu, vu := ArgMinUint([]uint64{9, 7, 8})
	if iu != 1 || vu != 7 {
		t.Errorf("ArgMinUint = (%d,%d), want (1,7)", iu, vu)
	}
}

func TestFewestWithin(t *testing.T) {
	// Times by thread count: min at index 4 but index 2 is within 1%.
	vals := []uint64{1000, 500, 303, 302, 300, 310, 350}
	if got := FewestWithin(vals, 0.01); got != 2 {
		t.Errorf("FewestWithin = %d, want 2", got)
	}
	if got := FewestWithin(vals, 0.0); got != 4 {
		t.Errorf("FewestWithin(tol=0) = %d, want 4", got)
	}
}

func TestPropertyGmeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r%1000) + 1
		}
		g := Gmean(vals)
		lo, hi := slices.Min(vals), slices.Max(vals)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyFewestWithinIsWithin(t *testing.T) {
	f := func(raw []uint16, tolRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]uint64, len(raw))
		for i, r := range raw {
			vals[i] = uint64(r) + 1
		}
		tol := float64(tolRaw%20) / 100
		i := FewestWithin(vals, tol)
		_, best := ArgMinUint(vals)
		return float64(vals[i]) <= float64(best)*(1+tol)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
