package stream

import (
	"math/rand"
	"testing"
)

// checkFifo compares q against the plain-slice model and checks that no
// slot outside the live window still holds a payload.
func checkFifo(t *testing.T, q *fifo[Message], model []Message) {
	t.Helper()
	if q.len() != len(model) {
		t.Fatalf("len = %d, model has %d", q.len(), len(model))
	}
	for i, m := range q.live() {
		if m != model[i] {
			t.Fatalf("live[%d] = %+v, model has %+v", i, m, model[i])
		}
	}
	all := q.buf[:cap(q.buf)]
	for i, m := range all {
		if (i < q.head || i >= len(q.buf)) && m != (Message{}) {
			t.Fatalf("dead slot %d (head %d, len %d, cap %d) retains %+v", i, q.head, len(q.buf), len(all), m)
		}
	}
}

// TestFifoAgainstSliceModel drives the head queue with random push-one /
// push-span / pop-k sequences against a plain slice.  The phases swing the
// depth so the run covers growth from empty, compaction behind an
// exhausted tail, and emptying.
func TestFifoAgainstSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var q fifo[Message]
	var model []Message
	var seq uint64
	next := func() Message {
		seq++
		return Message{Seq: seq, Kind: Data, Payload: seq}
	}
	grew, compacted, emptied := 0, 0, 0
	for step := 0; step < 60000; step++ {
		// Filling and draining phases swing the depth between empty and
		// past 256, the chain workloads' edge capacity.
		pushPct := 70
		if (step/3000)%2 == 1 {
			pushPct = 30
		}
		before, head := cap(q.buf), q.head
		switch {
		case len(model) < 300 && rng.Intn(100) < pushPct:
			if rng.Intn(2) == 0 {
				m := next()
				q.push(m)
				model = append(model, m)
				break
			}
			span := make([]Message, 1+rng.Intn(64))
			for i := range span {
				span[i] = next()
			}
			q.pushAll(span)
			model = append(model, span...)
		case len(model) > 0:
			k := 1 + rng.Intn(min(len(model), 70))
			q.pop(k)
			model = model[k:]
			if len(model) == 0 {
				emptied++
			}
		}
		if cap(q.buf) != before {
			grew++
		} else if head > 0 && q.head == 0 && len(model) > 0 {
			compacted++
		}
		checkFifo(t, &q, model)
	}
	if grew < 3 || compacted == 0 || emptied == 0 {
		t.Fatalf("walk too narrow: %d growths, %d compactions, %d emptyings", grew, compacted, emptied)
	}
	if c := cap(q.buf); c > 4*364 {
		t.Errorf("backing array grew to %d slots for a backlog never above 364", c)
	}
}

// TestFifoSteadyStateAllocs pins the property the shift-free queue was
// built for: once the array has grown to the backlog, push/pop cycles at
// any depth allocate nothing.
func TestFifoSteadyStateAllocs(t *testing.T) {
	for _, depth := range []int{1, 256} {
		var q fifo[Message]
		for i := 0; i < depth; i++ {
			q.push(Message{Seq: uint64(i)})
		}
		cycle := func() {
			for i := 0; i < 4*depth+7; i++ {
				q.push(Message{Seq: uint64(i)})
				q.pop(1)
			}
		}
		cycle() // settle the capacity
		if a := testing.AllocsPerRun(10, cycle); a != 0 {
			t.Errorf("depth %d: %.1f allocations per push/pop cycle, want 0", depth, a)
		}
	}
}
