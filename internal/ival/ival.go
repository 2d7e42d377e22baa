// Package ival implements exact arithmetic for dummy-message intervals.
//
// The Propagation algorithm of Buhler et al. produces integer intervals
// (sums and minima of channel buffer sizes).  The Non-Propagation algorithm
// produces ratios L(C,e)/h(C,e) of a buffer-length sum over a hop count, so
// intervals are non-negative rationals.  Both algorithms use +∞ for edges
// that lie on no constraining cycle.  Floating point would make golden tests
// and cross-validation against the exhaustive baseline fragile, so intervals
// are kept as exact rationals with a dedicated infinity.
package ival

import (
	"fmt"
	"math"
)

// Interval is a non-negative rational dummy interval, or +∞.
// The zero value is 0/1 (an interval of zero, i.e. "send a dummy with every
// message"), which is the safe degenerate value; use Inf() for "no
// constraint".  Intervals are immutable values.
type Interval struct {
	num int64 // numerator; -1 encodes +∞
	den int64 // denominator; 1 for ∞ and for integers
}

// Inf returns the +∞ interval: the edge needs no dummy messages.
func Inf() Interval { return Interval{num: -1, den: 1} }

// FromInt returns the integer interval n.  n must be non-negative.
func FromInt(n int64) Interval {
	if n < 0 {
		panic(fmt.Sprintf("ival: negative interval %d", n))
	}
	return Interval{num: n, den: 1}
}

// FromRatio returns the interval num/den in lowest terms.
// num must be non-negative and den positive.
func FromRatio(num, den int64) Interval {
	if num < 0 || den <= 0 {
		panic(fmt.Sprintf("ival: invalid ratio %d/%d", num, den))
	}
	g := gcd(num, den)
	return Interval{num: num / g, den: den / g}
}

func gcd(a, b int64) int64 {
	if a == 0 {
		return b
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// IsInf reports whether v is +∞.
func (v Interval) IsInf() bool { return v.num < 0 }

// Num returns the numerator of v in lowest terms.  Panics on ∞.
func (v Interval) Num() int64 {
	if v.IsInf() {
		panic("ival: Num of +∞")
	}
	return v.num
}

// Den returns the denominator of v in lowest terms (1 for ∞).
func (v Interval) Den() int64 { return v.den }

// IsInt reports whether v is a finite integer.
func (v Interval) IsInt() bool { return !v.IsInf() && v.den == 1 }

// Cmp compares v and w, returning -1, 0, or +1.  +∞ compares greater than
// every finite interval and equal to itself.
func (v Interval) Cmp(w Interval) int {
	switch {
	case v.IsInf() && w.IsInf():
		return 0
	case v.IsInf():
		return 1
	case w.IsInf():
		return -1
	}
	// Cross-multiply; buffer sums and hop counts are far below 2^31 in any
	// realistic topology, so int64 products cannot overflow.
	l := v.num * w.den
	r := w.num * v.den
	switch {
	case l < r:
		return -1
	case l > r:
		return 1
	}
	return 0
}

// Less reports v < w.
func (v Interval) Less(w Interval) bool { return v.Cmp(w) < 0 }

// Equal reports v == w as rationals (∞ == ∞).
func (v Interval) Equal(w Interval) bool { return v.Cmp(w) == 0 }

// Min returns the smaller of v and w.
func Min(v, w Interval) Interval {
	if w.Less(v) {
		return w
	}
	return v
}

// Add returns v + w.  Adding anything to +∞ yields +∞.
func (v Interval) Add(w Interval) Interval {
	if v.IsInf() || w.IsInf() {
		return Inf()
	}
	return FromRatio(v.num*w.den+w.num*v.den, v.den*w.den)
}

// DivInt returns v / n for integer n ≥ 1.  ∞ / n = ∞.
func (v Interval) DivInt(n int64) Interval {
	if n <= 0 {
		panic(fmt.Sprintf("ival: division by %d", n))
	}
	if v.IsInf() {
		return Inf()
	}
	return FromRatio(v.num, v.den*n)
}

// Ceil returns ⌈v⌉ as an int64.  This is the rounding the paper applies in
// Fig. 3 ("roundup").  Panics on ∞.
func (v Interval) Ceil() int64 {
	if v.IsInf() {
		panic("ival: Ceil of +∞")
	}
	return (v.num + v.den - 1) / v.den
}

// Float returns v as a float64 (math.Inf(1) for ∞); for reporting only.
func (v Interval) Float() float64 {
	if v.IsInf() {
		return math.Inf(1)
	}
	return float64(v.num) / float64(v.den)
}

// String renders v as "∞", an integer, or "num/den".
func (v Interval) String() string {
	if v.IsInf() {
		return "∞"
	}
	if v.den == 1 {
		return fmt.Sprintf("%d", v.num)
	}
	return fmt.Sprintf("%d/%d", v.num, v.den)
}
