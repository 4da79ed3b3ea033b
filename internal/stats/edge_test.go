package stats

// Table-driven edge cases: empty and single-sample inputs, and
// tie-breaking in the argmin family — the oracle's "fewest
// threads" rule depends on first-on-ties being stable.

import "testing"

func TestEmptyInputsPanic(t *testing.T) {
	cases := []struct {
		name string
		call func()
	}{
		{"Gmean", func() { Gmean(nil) }},
		{"ArgMinUint", func() { ArgMinUint(nil) }},
		{"FewestWithin", func() { FewestWithin(nil, 0.01) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(empty) did not panic", tc.name)
				}
			}()
			tc.call()
		})
	}
}

func TestSingleSample(t *testing.T) {
	if got := Gmean([]float64{7}); got != 7 {
		t.Errorf("Gmean([7]) = %g", got)
	}
	if i, v := ArgMinUint([]uint64{9}); i != 0 || v != 9 {
		t.Errorf("ArgMinUint([9]) = (%d, %d)", i, v)
	}
	if got := FewestWithin([]uint64{42}, 0.01); got != 0 {
		t.Errorf("FewestWithin([42]) = %d", got)
	}
}

func TestArgMinTieBreaking(t *testing.T) {
	cases := []struct {
		name string
		vals []uint64
		want int
	}{
		{"tie picks first", []uint64{3, 1, 1, 2}, 1},
		{"all equal picks first", []uint64{5, 5, 5}, 0},
		{"later strict min wins", []uint64{2, 2, 1}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if i, _ := ArgMinUint(tc.vals); i != tc.want {
				t.Errorf("ArgMinUint(%v) = %d, want %d", tc.vals, i, tc.want)
			}
		})
	}
}

func TestFewestWithinTieBreaking(t *testing.T) {
	cases := []struct {
		name string
		vals []uint64
		tol  float64
		want int
	}{
		{"earlier value inside tolerance wins", []uint64{101, 100, 99}, 0.05, 0},
		{"tight tolerance finds the min", []uint64{200, 100, 101}, 0, 1},
		{"exact ties pick first", []uint64{100, 100, 100}, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := FewestWithin(tc.vals, tc.tol); got != tc.want {
				t.Errorf("FewestWithin(%v, %g) = %d, want %d", tc.vals, tc.tol, got, tc.want)
			}
		})
	}
}
