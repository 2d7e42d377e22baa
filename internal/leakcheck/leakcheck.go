// Package leakcheck fails a test package whose tests leave goroutines
// behind.  A package opts in with a one-line TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs the package's tests; once they pass, the goroutine count must
// fall back to what it was before them within grace, or every stack is
// dumped to stderr and the run exits 1.  An engine's goroutines all belong
// to someone — Close, the session's end, a Source or Sink returning — so a
// test that blocks user code on purpose releases it before it returns.
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if n := settle(base); n > base {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "%d goroutines still running after the tests, %d before them:\n%s\n", n, base, buf)
			code = 1
		}
	}
	os.Exit(code)
}

// grace is how long exiting goroutines get to finish: a session's pumps
// return only after its end has reached them.
const grace = 2 * time.Second

// settle polls the goroutine count until it is at most base or grace has
// passed, and returns the last count.
func settle(base int) int {
	deadline := time.Now().Add(grace)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
