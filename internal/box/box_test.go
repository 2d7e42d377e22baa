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

// boxRun boxes vals as one run of a.
func boxRun[T any](a *Arena[T], vals ...T) []any {
	c := a.Load(len(vals))
	got := make([]any, len(vals))
	for i, v := range vals {
		got[i] = a.Box(v, &c)
	}
	a.Store(c)
	return got
}

// checkRun boxes vals as a run, then each again as a run of one, and holds
// every result to the conventional box of the same value under each way a
// consumer can read an interface value.
func checkRun[T any](t *testing.T, vals ...T) {
	t.Helper()
	a := For[T]().Arena()
	got := boxRun(&a, vals...)
	for _, v := range vals {
		got = append(got, a.One(v))
	}
	for i, g := range got {
		v := vals[i%len(vals)]
		want := any(v)
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
	words := For[uint64]().Arena()
	c := words.Load(5)
	got := []any{
		For[uint64]().Word(1000, &words, &c),
		For[int64]().Word(-3, &words, &c),
		For[float64]().Word(2.5, &words, &c),
		For[int]().Word(1<<40, &words, &c),
		For[uint64]().Word(1<<63, &words, &c),
	}
	words.Store(c)
	want := []any{uint64(1000), int64(-3), 2.5, 1 << 40, uint64(1 << 63)}
	for i := range want {
		if got[i] != want[i] || reflect.TypeOf(got[i]) != reflect.TypeOf(want[i]) || fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Errorf("value %d: %T %v, want %T %v", i, got[i], got[i], want[i], want[i])
		}
	}
	if len(words.chunk) != 5 || cap(words.chunk) != firstChunk {
		t.Errorf("five values of four types took a chunk of len %d cap %d; want five slots of one first chunk", len(words.chunk), cap(words.chunk))
	}
	if s := For[string]().Word("not a word", &words, &c); s != "not a word" {
		t.Errorf("a non-word T boxed to %v", s)
	}
}

// TestFreeValuesAllocateNothing: what the runtime boxes without
// allocating, an Arena does too, and it never carves a slot for it.
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
	a := For[T]().Arena()
	var sink any
	if n := testing.AllocsPerRun(100, func() {
		c := a.Load(64)
		for _, v := range vals {
			sink = a.Box(v, &c)
		}
		a.Store(c)
	}); n != 0 {
		t.Errorf("%T: boxing %v allocated %v times, want 0", vals[0], vals, n)
	}
	if a.chunk != nil {
		t.Errorf("%T: free values carved a chunk of cap %d", vals[0], cap(a.chunk))
	}
	_ = sink
}

// TestChunksGrowToTheCap: a pointer-free T's chunks start at firstChunk
// slots and double, run after run, up to maxChunk bytes, and no slot is
// ever written twice; a stream of runs of one then costs one allocation
// per full chunk, not one per value.
func TestChunksGrowToTheCap(t *testing.T) {
	growth(t, func(i int) uint64 { return uint64(1000 + i) })
	growth(t, func(i int) [64]byte { return [64]byte{0: byte(i), 63: byte(i >> 8)} })
	a := For[uint64]().Arena()
	for i := 0; i < 4*a.b.full; i++ { // past the growth: every chunk is full size
		a.One(uint64(1000 + i))
	}
	var sink any
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < a.b.full; i++ {
			sink = a.One(uint64(1000 + i))
		}
	}); n != 1 {
		t.Errorf("%d runs of one allocated %v times, want 1 (one full chunk)", a.b.full, n)
	}
	_ = sink
}

// growth boxes three full chunks' worth of val(i) as runs of one and
// checks the chunk capacities it went through and every value boxed.
func growth[T comparable](t *testing.T, val func(i int) T) {
	t.Helper()
	a := For[T]().Arena()
	var caps []int
	var boxed []any
	for i := 0; i < 3*a.b.full; i++ {
		boxed = append(boxed, a.One(val(i)))
		if n := len(caps); n == 0 || caps[n-1] != cap(a.chunk) {
			caps = append(caps, cap(a.chunk))
		}
	}
	var want []int
	for c := firstChunk; c < a.b.full; c *= 2 {
		want = append(want, c)
	}
	want = append(want, a.b.full)
	if a.b.full*int(reflect.TypeOf(val(0)).Size()) != maxChunk || !reflect.DeepEqual(caps, want) {
		t.Errorf("%T: chunk caps %v, want %v", val(0), caps, want)
	}
	for i, x := range boxed {
		if x != any(val(i)) {
			t.Fatalf("%T: value %d reads %v", val(0), i, x)
		}
	}
}

// TestOneSlabPerRun pins the pointer-holding case: a T that holds pointers
// keeps one chunk per run, sized to the run, and Store drops it, so an
// idle arena pins nothing; a run of one is boxed as Go does.
func TestOneSlabPerRun(t *testing.T) {
	rec := For[record]()
	a := rec.Arena()
	var sink any
	if n := testing.AllocsPerRun(100, func() {
		c := a.Load(64)
		for i := 0; i < 64; i++ {
			sink = a.Box(record{N: uint64(i)}, &c)
		}
		if cap(c) != 64 {
			t.Errorf("a run of 64 records carved a chunk of cap %d", cap(c))
		}
		a.Store(c)
	}); n != 1 {
		t.Errorf("a run of 64 records allocated %v times, want 1", n)
	}
	if a.chunk != nil {
		t.Errorf("a pointer-holding chunk of cap %d outlived its run", cap(a.chunk))
	}
	c := a.Load(1)
	sink = a.Box(record{Name: "alone"}, &c)
	if c != nil || sink.(record).Name != "alone" {
		t.Errorf("a run of one record took a chunk of cap %d (boxed %v)", cap(c), sink)
	}
	a.Store(c)
	c = a.Load(10 * maxChunk)
	for i := 0; i < 2*rec.full; i++ {
		a.Box(record{N: uint64(i)}, &c)
	}
	if cap(c) != rec.full {
		t.Errorf("a long run of records carved a chunk of cap %d; want the %d-byte cap, %d slots", cap(c), maxChunk, rec.full)
	}
	a.Store(c)
	strs := For[string]().Arena()
	sc := strs.Load(3)
	strs.Box("x", &sc)
	strs.Store(sc)
	if strs.chunk != nil {
		t.Error("a string chunk outlived its run")
	}
	big := For[[9]uint64]().Arena() // past maxSize: boxed per value
	bc := big.Load(64)
	if x := big.Box([9]uint64{1: 7}, &bc); bc != nil || x != ([9]uint64{1: 7}) {
		t.Errorf("a %d-byte value took a chunk of cap %d (boxed %v)", 72, cap(bc), x)
	}
}

// TestGCKeepsSlabValues boxes 1,000 runs of pointer-carrying structs and
// 64,000 uint64s as runs of one, keeps every 7th value and drops the
// rest, then collects three times with churn in between: every kept
// value, and everything it points to, must read back intact.
func TestGCKeepsSlabValues(t *testing.T) {
	const runs, width = 1000, 64
	a := For[record]().Arena()
	words := For[uint64]().Arena()
	var kept, keptWords []any
	for r := 0; r < runs; r++ {
		c := a.Load(width)
		for i := 0; i < width; i++ {
			id := r*width + i
			v := record{Name: strconv.Itoa(id), Next: &record{Name: "next " + strconv.Itoa(id)}, N: uint64(id)}
			x := a.Box(v, &c)
			w := words.One(uint64(1000 + id))
			if id%7 == 0 {
				kept = append(kept, x)
				keptWords = append(keptWords, w)
			}
		}
		a.Store(c)
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
		if w := keptWords[k]; w != uint64(1000+id) {
			t.Fatalf("kept word %d read back as %v after GC", id, w)
		}
	}
}
