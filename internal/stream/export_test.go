package stream

import (
	"sync"
	"sync/atomic"

	"streamdag/internal/proto"
)

// CountDummyRuns makes e count, over the sessions it opens from now on,
// what its nodes with one in-edge and with more took in committed proto
// runs (proto.Counts.RunMsgs); read the sums after those sessions' Wait.
// A topology without SpanKernels commits no data run, so these are the
// firings that crossed a node as dummy stretches.
func CountDummyRuns(e *Engine) (sums func() (single, multi int64)) {
	var mu sync.Mutex
	var single, multi int64
	e.onRetire = func(in int, c proto.Counts) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case in == 1:
			single += c.RunMsgs
		case in > 1:
			multi += c.RunMsgs
		}
	}
	return func() (int64, int64) {
		mu.Lock()
		defer mu.Unlock()
		return single, multi
	}
}

// CountEvents makes e count the events its node loops take from their
// mailboxes from now on, by kind: runs and credits posted on an edge
// without a ring, kicks to drain rings, and stall wakes; read the sums
// after the sessions' Wait.
func CountEvents(e *Engine) (sums func() (msgs, credits, kicks, wakes int64)) {
	e.events = new([evKinds]atomic.Int64)
	return func() (int64, int64, int64, int64) {
		k := e.events
		return k[evMsg].Load(), k[evCredit].Load(), k[evKick].Load(), k[evWake].Load()
	}
}
