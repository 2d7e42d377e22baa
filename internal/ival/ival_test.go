package ival

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	if !Inf().IsInf() {
		t.Error("Inf not IsInf")
	}
	v := FromInt(6)
	if v.IsInf() || !v.IsInt() || v.Num() != 6 || v.Den() != 1 {
		t.Errorf("FromInt(6) = %v", v)
	}
	r := FromRatio(8, 3)
	if r.String() != "8/3" {
		t.Errorf("FromRatio(8,3) = %s", r)
	}
	if got := FromRatio(6, 3); !got.Equal(FromInt(2)) || got.String() != "2" {
		t.Errorf("6/3 = %v, want 2", got)
	}
}

func TestFig3Rounding(t *testing.T) {
	// Fig. 3 of the paper: non-propagation intervals 6/3 = 2 and 8/3 → 3
	// (the paper rounds up).
	if got := FromRatio(6, 3).Ceil(); got != 2 {
		t.Errorf("ceil(6/3) = %d", got)
	}
	if got := FromRatio(8, 3).Ceil(); got != 3 {
		t.Errorf("ceil(8/3) = %d", got)
	}
}

func TestCmpAndMin(t *testing.T) {
	cases := []struct {
		a, b Interval
		want int
	}{
		{FromInt(2), FromInt(3), -1},
		{FromInt(3), FromInt(3), 0},
		{FromRatio(8, 3), FromInt(3), -1},
		{FromRatio(8, 3), FromRatio(5, 2), 1}, // 2.67 > 2.5
		{Inf(), FromInt(1000), 1},
		{FromInt(0), Inf(), -1},
		{Inf(), Inf(), 0},
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("Cmp(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if got := Min(FromInt(5), FromRatio(9, 2)); !got.Equal(FromRatio(9, 2)) {
		t.Errorf("Min = %v", got)
	}
	if got := Min(Inf(), FromInt(7)); !got.Equal(FromInt(7)) {
		t.Errorf("Min(∞,7) = %v", got)
	}
}

func TestArithmetic(t *testing.T) {
	if got := FromInt(3).Add(FromInt(4)); !got.Equal(FromInt(7)) {
		t.Errorf("3+4 = %v", got)
	}
	if got := FromRatio(1, 2).Add(FromRatio(1, 3)); !got.Equal(FromRatio(5, 6)) {
		t.Errorf("1/2+1/3 = %v", got)
	}
	if got := Inf().Add(FromInt(5)); !got.IsInf() {
		t.Errorf("∞+5 = %v", got)
	}
	if got := FromInt(8).DivInt(3); !got.Equal(FromRatio(8, 3)) {
		t.Errorf("8/3 = %v", got)
	}
	if got := Inf().DivInt(3); !got.IsInf() {
		t.Errorf("∞/3 = %v", got)
	}
}

func TestDefaults(t *testing.T) {
	if !math.IsInf(Inf().Float(), 1) {
		t.Error("Float(∞) not +Inf")
	}
	if got := FromRatio(3, 2).Float(); got != 1.5 {
		t.Errorf("Float(3/2) = %v", got)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("neg int", func() { FromInt(-1) })
	mustPanic("neg ratio", func() { FromRatio(-1, 2) })
	mustPanic("zero den", func() { FromRatio(1, 0) })
	mustPanic("ceil inf", func() { Inf().Ceil() })
	mustPanic("num inf", func() { Inf().Num() })
	mustPanic("div zero", func() { FromInt(1).DivInt(0) })
}

// Property: Min is commutative, associative, and idempotent; Cmp is a total
// order consistent with Float.
func TestQuickMinLattice(t *testing.T) {
	gen := func(n, d uint16) Interval {
		if d == 0 {
			return Inf()
		}
		return FromRatio(int64(n), int64(d))
	}
	comm := func(an, ad, bn, bd uint16) bool {
		a, b := gen(an, ad), gen(bn, bd)
		return Min(a, b).Equal(Min(b, a))
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(an, ad, bn, bd, cn, cd uint16) bool {
		a, b, c := gen(an, ad), gen(bn, bd), gen(cn, cd)
		return Min(Min(a, b), c).Equal(Min(a, Min(b, c)))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
	ordered := func(an, ad, bn, bd uint16) bool {
		a, b := gen(an, ad), gen(bn, bd)
		if a.Float() < b.Float() {
			return a.Cmp(b) == -1
		}
		if a.Float() > b.Float() {
			return a.Cmp(b) == 1
		}
		return true // floats may collide where rationals differ; skip
	}
	if err := quick.Check(ordered, nil); err != nil {
		t.Error(err)
	}
}
