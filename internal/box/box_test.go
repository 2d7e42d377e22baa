package box

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"testing"
)

// record is a pointer-carrying struct, as a user payload would be.
type record struct {
	Name string
	Next *record
	N    uint64
}

// kindOf classifies x with a type switch.
func kindOf(x any) string {
	switch x.(type) {
	case uint64:
		return "uint64"
	case int:
		return "int"
	case float64:
		return "float64"
	case string:
		return "string"
	case record:
		return "record"
	case [3]int:
		return "[3]int"
	case struct{}:
		return "struct{}"
	case *int:
		return "*int"
	case map[string]int:
		return "map"
	case nil:
		return "nil"
	}
	return "other"
}

// guarded returns f's result, or "panic" when f panics — comparing or
// hashing an interface holding a map does, and must do so either way.
func guarded(f func() string) (s string) {
	defer func() {
		if recover() != nil {
			s = "panic"
		}
	}()
	return f()
}

// checkRun boxes vals as one run and holds every result to the
// conventional box of the same value under each way a consumer can read
// an interface value.
func checkRun[T any](t *testing.T, vals ...T) {
	t.Helper()
	b := For[T]()
	var slab []T
	got := make([]any, len(vals))
	for i, v := range vals {
		got[i] = b.One(v, &slab, len(vals)-i)
	}
	for i, v := range vals {
		g, want := got[i], any(v)
		x, ok := g.(T)
		wx, wok := want.(T)
		if ok != wok || !reflect.DeepEqual(x, wx) {
			t.Errorf("%T %v: assertion gave %v, %v; want %v, %v", v, want, x, ok, wx, wok)
		}
		if kindOf(g) != kindOf(want) {
			t.Errorf("%T %v: type switch says %s, want %s", v, want, kindOf(g), kindOf(want))
		}
		if reflect.TypeOf(g) != reflect.TypeOf(want) {
			t.Errorf("%T %v: reflect.TypeOf = %v", v, want, reflect.TypeOf(g))
		}
		eq := func(a, b any) string { return guarded(func() string { return fmt.Sprint(a == b) }) }
		if e, w := eq(g, want), eq(any(v), want); e != w {
			t.Errorf("%T %v: == gives %s, conventional boxes %s", v, want, e, w)
		}
		key := func(in, look any) string {
			return guarded(func() string { return fmt.Sprint(map[any]int{in: 1}[look]) })
		}
		if k, w := key(want, g)+key(g, want), key(want, any(v))+key(any(v), want); k != w {
			t.Errorf("%T %v: as a map key gives %s, conventional boxes %s", v, want, k, w)
		}
		if s, w := fmt.Sprint(g), fmt.Sprint(want); s != w {
			t.Errorf("%T: fmt.Sprint = %q, want %q", v, s, w)
		}
	}
}

func TestOneMatchesConventionalBox(t *testing.T) {
	x, y := 1, 2
	checkRun(t, uint64(1000), uint64(7), 1<<63, uint64(256))
	checkRun(t, -5, 300, 12, 1<<40)
	checkRun(t, 1.5, 0, -2.25, 1e300)
	checkRun(t, "hello", "", "a longer string payload")
	checkRun(t, record{Name: "a", Next: &record{Name: "b"}, N: 9}, record{}, record{Name: "c", N: 1 << 50})
	checkRun(t, [3]int{1, 2, 3}, [3]int{}, [3]int{-1, 1 << 20, 7})
	checkRun(t, struct{}{}, struct{}{})
	checkRun(t, &x, &y, nil)
	checkRun(t, map[string]int{"a": 1}, nil, map[string]int{})
	checkRun[any](t, uint64(1000), "s", nil, record{Name: "r"})
}

func TestWordMatchesConventionalBox(t *testing.T) {
	var words []uint64
	got := []any{
		For[uint64]().Word(1000, &words, 5),
		For[int64]().Word(-3, &words, 4),
		For[float64]().Word(2.5, &words, 3),
		For[int]().Word(1<<40, &words, 2),
		For[uint64]().Word(1<<63, &words, 1),
	}
	want := []any{uint64(1000), int64(-3), 2.5, 1 << 40, uint64(1 << 63)}
	for i := range want {
		if got[i] != want[i] || reflect.TypeOf(got[i]) != reflect.TypeOf(want[i]) || fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Errorf("value %d: %T %v, want %T %v", i, got[i], got[i], want[i], want[i])
		}
	}
	if len(words) != 5 || cap(words) != 5 {
		t.Errorf("five values of four types took a slab of len %d cap %d; want one slab of 5", len(words), cap(words))
	}
	if s := For[string]().Word("not a word", &words, 1); s != "not a word" {
		t.Errorf("a non-word T boxed to %v", s)
	}
}

// TestFreeValuesAllocateNothing: what the runtime boxes without
// allocating, One does too, and it never forces a slab.
func TestFreeValuesAllocateNothing(t *testing.T) {
	x := 1
	free(t, uint64(0), uint64(255), uint64(7))
	free(t, 0, 12, 255)
	free(t, 0.0)
	free(t, "")
	free(t, struct{}{})
	free(t, &x, nil)
	free(t, map[string]int{"a": 1}, nil)
	free[any](t, uint64(1000), "s", nil, record{Name: "boxed already"})
	free(t, true, false)
	free(t, byte(200))
	free(t, int16(5), int16(255))
	free(t, float32(0))
	free[[]byte](t, nil)
}

func free[T any](t *testing.T, vals ...T) {
	t.Helper()
	b := For[T]()
	var slab []T
	var sink any
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			sink = b.One(v, &slab, 64)
		}
	}); n != 0 {
		t.Errorf("%T: boxing %v allocated %v times, want 0", vals[0], vals, n)
	}
	if slab != nil {
		t.Errorf("%T: free values forced a slab of cap %d", vals[0], cap(slab))
	}
	_ = sink
}

// TestOneSlabPerRun pins the budget: a run of 64 boxed values costs one
// allocation, and a run of one costs what its box does — never a slab.
func TestOneSlabPerRun(t *testing.T) {
	b := For[uint64]()
	var sink any
	if n := testing.AllocsPerRun(100, func() {
		var slab []uint64
		for i := 0; i < 64; i++ {
			sink = b.One(uint64(1000+i), &slab, 64-i)
		}
	}); n != 1 {
		t.Errorf("a run of 64 allocated %v times, want 1", n)
	}
	var slab []uint64
	sink = b.One(1000, &slab, 1)
	if slab != nil || sink != uint64(1000) {
		t.Errorf("a run of one took a slab of cap %d (boxed %v)", cap(slab), sink)
	}
	rec := For[record]()
	if n := testing.AllocsPerRun(100, func() {
		var slab []record
		for i := 0; i < 64; i++ {
			sink = rec.One(record{N: uint64(i)}, &slab, 64-i)
		}
	}); n != 1 {
		t.Errorf("a run of 64 records allocated %v times, want 1", n)
	}
	var big [][9]uint64 // past maxSize: boxed per value
	if x := For[[9]uint64]().One([9]uint64{1: 7}, &big, 64); big != nil || x != [9]uint64{1: 7} {
		t.Errorf("a %d-byte value took a slab of cap %d (boxed %v)", 72, cap(big), x)
	}
}

// TestGCKeepsSlabValues boxes 1,000 runs of pointer-carrying structs,
// keeps every 7th value and drops the rest, then collects three times
// with churn in between: every kept value, and everything it points to,
// must read back intact.
func TestGCKeepsSlabValues(t *testing.T) {
	const runs, width = 1000, 64
	b := For[record]()
	var kept []any
	for r := 0; r < runs; r++ {
		var slab []record
		for i := 0; i < width; i++ {
			id := r*width + i
			v := record{Name: strconv.Itoa(id), Next: &record{Name: "next " + strconv.Itoa(id)}, N: uint64(id)}
			if x := b.One(v, &slab, width-i); id%7 == 0 {
				kept = append(kept, x)
			}
		}
	}
	var churn [][]*record
	for i := 0; i < 3; i++ {
		runtime.GC()
		churn = churn[:0]
		for j := 0; j < 2000; j++ {
			churn = append(churn, []*record{{Name: strconv.Itoa(-j)}, {N: uint64(j)}})
		}
	}
	runtime.KeepAlive(churn)
	for k, x := range kept {
		id := 7 * k
		v := x.(record)
		if v.Name != strconv.Itoa(id) || v.N != uint64(id) || v.Next == nil || v.Next.Name != "next "+strconv.Itoa(id) {
			t.Fatalf("kept value %d read back as %+v after GC", id, v)
		}
	}
}
