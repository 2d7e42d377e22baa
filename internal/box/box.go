// Package box converts values to interface values ("boxes" them) without
// a heap allocation per value.  It is the only package in the module that
// imports unsafe.
//
// Converting a T to any copies the value into a fresh heap object unless
// the runtime needs none: T is an interface or pointer-shaped (the value
// is the interface's data word), zero-size, bool or a byte, or an integer
// or float of 2, 4 or 8 bytes whose bits read below 256 (the runtime's
// static small integers), an empty string or a nil slice.  An Arena boxes
// those values exactly as Go does.  It copies every other value into a
// chunk — a []T it allocates when the last one is full and keeps across
// runs — and points the interface's data word into it.  A slot is written
// once, before its interface exists, and never again, and a chunk is never
// resliced, so the boxed value is as immutable as a conventional box; the
// garbage collector keeps the chunk alive while any of its values is
// referenced.
package box

import (
	"reflect"
	"unsafe"
)

// maxSize is the largest T, in bytes, that goes into a chunk; larger
// values are boxed one by one: past it, copying the value costs about as
// much as the allocation a chunk would save.
const maxSize = 64

// A chunk holds firstChunk slots, then twice as many as the one before,
// up to maxChunk bytes — the most a retained value can pin.
const (
	firstChunk = 8
	maxChunk   = 4 << 10
)

// rule is how a Boxer decides whether a value needs an allocation.
type rule uint8

const (
	asGo    rule = iota // boxes as Go does, without allocating, or exceeds maxSize
	chunked             // always allocates: goes into a chunk
	word2               // 2-byte integer: free below 256 (runtime.convT16)
	word4               // 4-byte integer or float32: free below 256 (runtime.convT32)
	word8               // 8-byte integer or float64: free below 256 (runtime.convT64)
	str                 // string: free when empty (runtime.convTstring)
	slice               // slice: free when nil (runtime.convTslice)
)

// eface is the layout of an empty interface value.
type eface struct {
	typ, data unsafe.Pointer
}

// Boxer is what an Arena needs to know about T, resolved once by For.
type Boxer[T any] struct {
	typ  unsafe.Pointer // T's type word
	rule rule
	ptrs bool // T holds pointers: a chunk lasts one run (Arena.Store)
	full int  // slots in a chunk of maxChunk bytes
}

// For returns the Boxer of T.  It inspects T by reflection, so resolve it
// once — at package init or when a stage is lowered — not per value or
// per Arena.
func For[T any]() Boxer[T] {
	var zero T
	e := any(zero)
	ef := (*eface)(unsafe.Pointer(&e))
	t := reflect.TypeOf((*T)(nil)).Elem()
	// An interface T boxes to its dynamic value and a pointer-shaped T is
	// its own data word, so only those box a zero value to a nil one.
	b := Boxer[T]{typ: ef.typ, rule: ruleOf(t, ef.data == nil), ptrs: hasPointers(t)}
	if t.Size() > 0 {
		b.full = maxChunk / int(t.Size())
	}
	return b
}

func ruleOf(t reflect.Type, direct bool) rule {
	if direct || t.Size() == 0 || t.Size() > maxSize {
		return asGo
	}
	switch t.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return asGo
	case reflect.Int, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		switch t.Size() {
		case 2:
			return word2
		case 4:
			return word4
		}
		return word8
	case reflect.String:
		return str
	case reflect.Slice:
		return slice
	}
	return chunked
}

// hasPointers reports whether a value of type t holds a pointer the
// garbage collector follows.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
		return true
	}
	return false
}

// free reports whether the runtime boxes the T at p without allocating.
func (b Boxer[T]) free(p unsafe.Pointer) bool {
	switch b.rule {
	case asGo:
		return true
	case word2:
		return *(*uint16)(p) < 256
	case word4:
		return *(*uint32)(p) < 256
	case word8:
		return *(*uint64)(p) < 256
	case str:
		return len(*(*string)(p)) == 0
	case slice:
		return *(*[]byte)(p) == nil
	}
	return false
}

// at returns the interface value of the T stored at p.
func (b Boxer[T]) at(p unsafe.Pointer) any {
	var r any
	e := (*eface)(unsafe.Pointer(&r))
	e.typ, e.data = b.typ, p
	return r
}

// Arena boxes one producer's values of type T; it is not safe for
// concurrent use.  A run of values loads the arena's chunk into a local,
// boxes each value with Box and stores the chunk back once, so the loop
// carves from a local rather than through the arena.  A chunk outlives
// its run, so a run of one value carves one slot like any other.
//
// A T that holds pointers is the exception: its chunk lasts one run,
// sized to the run (one slab per run), so an idle producer pins nobody's
// memory — and a run of one is boxed as Go does, since a chunk of one
// costs what its box does.  The zero Arena boxes every value as Go does.
type Arena[T any] struct {
	b     Boxer[T]
	chunk []T // between runs; always nil for a T that holds pointers
	next  int // slots in the next chunk; ≤ 1 boxes as Go does instead
}

// Arena returns an empty arena for b's type.  It does no reflection.
func (b Boxer[T]) Arena() Arena[T] {
	return Arena[T]{b: b, next: min(firstChunk, b.full)}
}

// Load hands the arena's chunk to a run of n values; the arena holds none
// until Store takes it back, so a run that never stores it only loses the
// chunk's free slots.  n sizes the chunk of a T that holds pointers.
func (a *Arena[T]) Load(n int) []T {
	if a.b.ptrs {
		a.next = min(n, a.b.full)
		return nil
	}
	c := a.chunk
	a.chunk = nil
	return c
}

// Store takes back the chunk Load handed out, and drops it if T holds
// pointers.
func (a *Arena[T]) Store(c []T) {
	if !a.b.ptrs {
		a.chunk = c
	}
}

// Box returns v as an interface value, carving its slot, if it needs one,
// from c — the chunk Load handed out.
func (a *Arena[T]) Box(v T, c *[]T) any {
	if a.b.free(unsafe.Pointer(&v)) {
		return v
	}
	if p := a.carve(c, v); p != nil {
		return a.b.at(p)
	}
	return v
}

// One boxes a run of one value.
func (a *Arena[T]) One(v T) any {
	c := a.Load(1)
	x := a.Box(v, &c)
	a.Store(c)
	return x
}

// Word is Box for the 8-byte integers and floats a decoder reads as
// 64-bit words: v goes into c, a chunk of words, whose slots values of
// several such types can share.  For any other T it boxes v as Go does.
func (b Boxer[T]) Word(v T, words *Arena[uint64], c *[]uint64) any {
	if b.rule != word8 {
		return v
	}
	u := *(*uint64)(unsafe.Pointer(&v))
	if u < 256 {
		return v
	}
	if p := words.carve(c, u); p != nil {
		return b.at(p)
	}
	return v
}

// carve appends v to the chunk *c and returns the address of its slot,
// replacing a full chunk with a fresh one — or returns nil when the fresh
// one would be a chunk of one.
func (a *Arena[E]) carve(c *[]E, v E) unsafe.Pointer {
	s := *c
	if len(s) == cap(s) {
		if a.next <= 1 {
			return nil
		}
		s = make([]E, 0, a.next)
		if !a.b.ptrs {
			a.next = min(2*a.next, a.b.full)
		}
	}
	s = append(s, v)
	*c = s
	return unsafe.Pointer(&s[len(s)-1])
}
