//go:build go1.24

package dist

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"streamdag/internal/workload"
)

// TestCrossEdgePayloadsCollected: the storage a cross edge's runs pass
// through — the receive ring the link reader fills — must not keep a
// session's payloads alive once the session is over.  On a
// four-stage chain split over two workers, one session completes and one
// is cancelled mid-stream with its sink blocked; with the engine still up,
// every payload the sources made must then be collectable.
func TestCrossEdgePayloadsCollected(t *testing.T) {
	for _, batch := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			g := workload.Pipeline(4, 8)
			part := Partition{0: "alpha", 1: "alpha", 2: "beta", 3: "beta"}
			eng, err := NewEngine(g, part, nil, Config{MaxBatch: batch, WatchdogTimeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			var (
				mu   sync.Mutex
				made []weak.Pointer[byte]
			)
			// A []byte payload crosses the wire as raw bytes; the weak
			// pointer tracks the array the source made.
			payload := func() any {
				b := make([]byte, 64)
				mu.Lock()
				made = append(made, weak.Make(&b[0]))
				mu.Unlock()
				return b
			}

			const inputs = 300
			n := 0
			completed, err := eng.Open(SessionIO{
				ID: 1,
				Source: func(context.Context) (any, bool, error) {
					if n++; n > inputs {
						return nil, false, nil
					}
					return payload(), true, nil
				},
				Sink: func(context.Context, uint64, any) error { return nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats, err := completed.Wait(); err != nil || stats.SinkData != inputs {
				t.Fatalf("completed session: %v, err %v; want %d sink firings", stats, err, inputs)
			}

			const before = 40 // pulls that put runs on the cross edge before the cancel
			var pulls atomic.Int64
			cancelled, err := eng.Open(SessionIO{
				ID: 2,
				Source: func(context.Context) (any, bool, error) {
					pulls.Add(1)
					return payload(), true, nil
				},
				Sink: func(ctx context.Context, _ uint64, _ any) error {
					<-ctx.Done()
					return ctx.Err()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); pulls.Load() < before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("after 5 s the source was pulled %d times; want %d", pulls.Load(), before)
				}
			}
			cancelled.Fail(context.Canceled)
			if _, err := cancelled.Wait(); err != context.Canceled {
				t.Fatalf("Wait = %v, want context.Canceled", err)
			}

			// The pumps give their buffers up just after Wait returns, so
			// give them a moment.
			live := 0
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				runtime.GC()
				mu.Lock()
				live = 0
				for _, w := range made {
					if w.Value() != nil {
						live++
					}
				}
				mu.Unlock()
				if live == 0 || time.Now().After(deadline) {
					break
				}
			}
			if live != 0 {
				t.Errorf("%d of %d payloads are still reachable after their sessions ended", live, len(made))
			}
		})
	}
}
