package stream

// Layer microbenchmarks for the pieces a batch-1 message crosses between
// two kernels (ROADMAP 1a): the head queue, the mailbox, and one firing.
// Every benchmark's ns/op is per message.
//
//	go test -run '^$' -bench 'Fifo|Mailbox|FireOnce' -benchmem ./internal/stream

import (
	"sync/atomic"
	"testing"
	"time"

	"streamdag/internal/graph"
	"streamdag/internal/workload"
)

func benchFifo(b *testing.B, depth int) {
	var q fifo[Message]
	for i := 0; i < depth; i++ {
		q.push(Message{Seq: uint64(i), Kind: Data, Payload: i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.push(Message{Seq: uint64(i), Kind: Data, Payload: i & 0xff})
		q.pop(1)
	}
}

func BenchmarkFifoPushPopDepth1(b *testing.B)   { benchFifo(b, 1) }
func BenchmarkFifoPushPopDepth256(b *testing.B) { benchFifo(b, 256) }

// BenchmarkMailboxPostTake posts single-message events and drains them in
// batches of 16, the two slices ping-ponging as in engineNode.run.
func BenchmarkMailboxPostTake(b *testing.B) {
	mb := newMailbox()
	var spare []event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb.post(event{kind: evMsg, msg: Message{Seq: uint64(i), Kind: Data}})
		if i%16 == 15 {
			evs, _ := mb.takeAll(spare)
			clear(evs)
			spare = evs
		}
	}
}

// benchFireOnce times one batch-1 firing of a single-input node — head
// push, fireOnce, send — with the given kernel.  The engine is built and
// closed first, so the benchmark's goroutine is the only one touching the
// node and its sends fall on a closed mailbox: the cost measured is the
// firing's own.
func benchFireOnce(b *testing.B, k Kernel) {
	g := workload.Pipeline(3, 4)
	mid := g.MustNode("s1")
	e, err := NewEngine(g, map[graph.NodeID]Kernel{mid: k}, Config{WatchdogTimeout: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	e.Close()
	n := e.nodes[mid]
	ses := &EngineSession{
		id: 1, e: e,
		live:      make([]ownedCounter, len(e.nodes)),
		data:      make([]int64, g.NumEdges()),
		dummies:   make([]int64, g.NumEdges()),
		occupancy: make([]atomic.Int64, g.NumEdges()),
	}
	n.absorb(&event{kind: evOpen, ses: ses})
	ns := n.sess[ses.id]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns.heads[0].push(Message{Seq: uint64(i), Kind: Data, Payload: i & 0xff})
		ns.inflight[0] = 0 // the credit an undrained downstream never returns
		if !n.fireOnce(ns) {
			b.Fatal("aligned head did not fire")
		}
	}
}

// The same kernel through its two doors: Passthrough is a SpanKernel
// (span of length one on node scratch); wrapped in a KernelFunc only its
// Process is visible (input slice and output map per firing).
func BenchmarkFireOnceSpanKernel(b *testing.B) { benchFireOnce(b, Passthrough(1)) }
func BenchmarkFireOnceMapKernel(b *testing.B) {
	benchFireOnce(b, KernelFunc(Passthrough(1).Process))
}
