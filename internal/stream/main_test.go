package stream

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines behind: once
// they have run, the goroutine count must fall back to what it was before
// them within leakGrace, or the stacks are dumped and the run exits 1.  An
// engine's node loops, watchdog and pumps all belong to someone — Close,
// the session's end, a Source or Sink returning — so a test that blocks
// user code on purpose releases it before it returns.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if n := settleGoroutines(base); n > base {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "%d goroutines still running after the tests, %d before them:\n%s\n", n, base, buf)
			code = 1
		}
	}
	os.Exit(code)
}

// leakGrace is how long exiting goroutines get to finish: a session's
// pumps return only after its end has reached them.
const leakGrace = 2 * time.Second

// settleGoroutines polls the goroutine count until it is at most base or
// leakGrace has passed, and returns the last count.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(leakGrace)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
