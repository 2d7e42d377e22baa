package stream

import (
	"sync"

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
