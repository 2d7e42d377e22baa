// Package box converts runs of values to interface values ("boxes" them)
// with one heap allocation per run instead of one per value.  It is the
// only package in the module that imports unsafe.
//
// Converting a T to any copies the value into a fresh heap object unless
// the runtime needs none: T is an interface or pointer-shaped (the value
// is the interface's data word), zero-size, bool or a byte, or an integer
// or float of 2, 4 or 8 bytes whose bits read below 256 (the runtime's
// static small integers), an empty string or a nil slice.  A Boxer boxes
// those values exactly as Go does.  It copies every other value into a
// slab — one []T allocated on first need with room for the rest of the
// run — and points the interface's data word into it.  A slot is written
// once, before its interface exists, and never again, so the boxed value
// is as immutable as a conventional box; the garbage collector keeps the
// slab alive while any of its values is referenced.
package box

import (
	"reflect"
	"unsafe"
)

// maxSize is the largest T, in bytes, that goes into a slab; larger
// values are boxed one by one.  A retained value pins its whole slab,
// so the cap bounds what one payload kept past its run holds to
// run length × 64 B (4 KiB at batch 64); past it, copying the value
// costs about as much as the allocation a slab would save.
const maxSize = 64

// rule is how a Boxer decides whether a value needs an allocation.
type rule uint8

const (
	asGo    rule = iota // boxes as Go does, without allocating, or exceeds maxSize
	slabbed             // always allocates: goes into the slab
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

// Boxer boxes values of type T.  Its zero value boxes every value as Go
// does; For returns one that uses slabs.
type Boxer[T any] struct {
	typ  unsafe.Pointer // T's type word
	rule rule
}

// For returns the Boxer of T.  It inspects T by reflection, so resolve it
// once — at package init or when a stage is lowered — not per value.
func For[T any]() Boxer[T] {
	var zero T
	e := any(zero)
	ef := (*eface)(unsafe.Pointer(&e))
	// An interface T boxes to its dynamic value and a pointer-shaped T is
	// its own data word, so only those box a zero value to a nil one.
	return Boxer[T]{typ: ef.typ, rule: ruleOf(reflect.TypeOf((*T)(nil)).Elem(), ef.data == nil)}
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
	return slabbed
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

// One returns v as an interface value.  slab is the run's slab: nil at
// the start of a run and then left to One, which allocates it on first
// need with room for left values (v and the left − 1 after it), never
// grows it and never writes a slot twice — so it must never be
// resliced or reused for another run.  A value the runtime boxes without
// allocating is boxed as usual, as is one that would need a fresh slab
// for itself alone (left ≤ 1), since that slab costs what its box does.
func (b Boxer[T]) One(v T, slab *[]T, left int) any {
	if b.free(unsafe.Pointer(&v)) {
		return v
	}
	if p := push(slab, v, left); p != nil {
		return b.at(p)
	}
	return v
}

// Word is One for the 8-byte integers and floats a decoder reads as
// 64-bit words: v goes into a []uint64 slab that values of several such
// types can share.  For any other T it boxes v as Go does.
func (b Boxer[T]) Word(v T, slab *[]uint64, left int) any {
	if b.rule != word8 {
		return v
	}
	u := *(*uint64)(unsafe.Pointer(&v))
	if u < 256 {
		return v
	}
	if p := push(slab, u, left); p != nil {
		return b.at(p)
	}
	return v
}

// push appends v to the slab and returns the address of its slot, or nil
// when the slab is full and left ≤ 1.
func push[E any](slab *[]E, v E, left int) unsafe.Pointer {
	s := *slab
	if len(s) == cap(s) {
		if left <= 1 {
			return nil
		}
		s = make([]E, 0, left)
	}
	s = append(s, v)
	*slab = s
	return unsafe.Pointer(&s[len(s)-1])
}

// at returns the interface value of the T stored at p.
func (b Boxer[T]) at(p unsafe.Pointer) any {
	var r any
	e := (*eface)(unsafe.Pointer(&r))
	e.typ, e.data = b.typ, p
	return r
}
