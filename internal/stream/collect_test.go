//go:build go1.24

package stream

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"streamdag/internal/workload"
)

// TestCancelledSessionPayloadsCollected: recycled buffers must not keep a
// finished session's payloads alive.  A session is cancelled with its sink
// blocked (emissions queued in the sink ring) while its Source is stuck
// in Next ignoring the context; released, the source hands its pump more
// payloads, which land in the ring after the end where no node drains them.
// Once the buffers are back on the engine's free list — the engine still
// up — every payload the source made must be collectable.
func TestCancelledSessionPayloadsCollected(t *testing.T) {
	e, err := NewEngine(workload.Pipeline(4, 8), nil, Config{WatchdogTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Payloads the source makes before it gets stuck: enough to fill the
	// sink ring, with some left queued in the ingest ring and on the edges.
	before := int64(rimWindow) + 14
	var (
		mu      sync.Mutex
		made    []weak.Pointer[[64]byte]
		pulls   atomic.Int64
		release = make(chan struct{})
	)
	ses, err := e.Open(SessionConfig{
		ID: 1,
		Source: func(context.Context) (any, bool, error) {
			if pulls.Add(1) > before {
				<-release // ignores its context
			}
			p := new([64]byte)
			mu.Lock()
			made = append(made, weak.Make(p))
			mu.Unlock()
			return p, true, nil
		},
		Sink: func(ctx context.Context, _ uint64, _ any) error {
			<-ctx.Done()
			return ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); pulls.Load() <= before || ses.emit.occupancy() < int64(rimWindow); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after 5 s: %d pulls, %d emissions queued", pulls.Load(), ses.emit.occupancy())
		}
	}
	ses.Fail(context.Canceled)
	if _, err := ses.Wait(); err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	close(release)
	freeBufs(t, e, []*EngineSession{ses})

	mu.Lock()
	defer mu.Unlock()
	if int64(len(made)) <= before {
		t.Fatalf("the released source made %d payloads; it should have made more than %d", len(made), before)
	}
	// A node empties its retired session state right after the batch that
	// carried the abort, so give the last one a moment.
	live := 0
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		live = 0
		for _, w := range made {
			if w.Value() != nil {
				live++
			}
		}
		if live == 0 || time.Now().After(deadline) {
			break
		}
	}
	if live != 0 {
		t.Errorf("%d of %d payloads of a cancelled session are still reachable after its buffers were recycled", live, len(made))
	}
}
