package fault

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestRetryPolicyDelay(t *testing.T) {
	cases := []struct {
		name string
		p    RetryPolicy
		n    int
		want time.Duration
	}{
		{"zero policy", RetryPolicy{}, 1, 0},
		{"n below 1", RetryPolicy{Backoff: time.Second}, 0, 0},
		{"constant", RetryPolicy{Backoff: 100 * time.Millisecond}, 3, 100 * time.Millisecond},
		{"factor <= 1 is constant", RetryPolicy{Backoff: 50 * time.Millisecond, Factor: 0.5}, 4, 50 * time.Millisecond},
		{"grows", RetryPolicy{Backoff: 10 * time.Millisecond, Factor: 2}, 3, 40 * time.Millisecond},
		{"capped", RetryPolicy{Backoff: 10 * time.Millisecond, Factor: 2, MaxBackoff: 25 * time.Millisecond}, 3, 25 * time.Millisecond},
		{"cap below base", RetryPolicy{Backoff: time.Second, MaxBackoff: 100 * time.Millisecond}, 1, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := c.p.Delay(c.n); got != c.want {
			t.Errorf("%s: Delay(%d) = %v, want %v", c.name, c.n, got, c.want)
		}
	}
}

func TestRetryPolicyAttempts(t *testing.T) {
	if got := (RetryPolicy{}).Attempts(); got != 1 {
		t.Errorf("zero policy Attempts = %d, want 1", got)
	}
	if got := (RetryPolicy{MaxAttempts: -3}).Attempts(); got != 1 {
		t.Errorf("negative Attempts = %d, want 1", got)
	}
	if got := (RetryPolicy{MaxAttempts: 5}).Attempts(); got != 5 {
		t.Errorf("Attempts = %d, want 5", got)
	}
}

func TestQueue(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Fatalf("fresh queue Len = %d", q.Len())
	}
	q.Push(DeadLetter{Session: 1, Seq: 7, Payload: "x"})
	q.Push(DeadLetter{Session: 1, Seq: 9, Payload: "y"})
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	ls := q.Letters()
	if len(ls) != 2 || ls[0].Seq != 7 || ls[1].Seq != 9 {
		t.Fatalf("Letters = %+v", ls)
	}
	// Letters returns a copy: mutating it must not touch the queue.
	ls[0].Seq = 99
	if q.Letters()[0].Seq != 7 {
		t.Fatal("Letters aliases the queue's storage")
	}
}

func TestWorkerDownError(t *testing.T) {
	cause := errors.New("connection reset")
	wd := &WorkerDownError{Worker: "w1", Addr: "127.0.0.1:9", Sessions: []uint64{3, 5}, Cause: cause}
	msg := wd.Error()
	for _, want := range []string{`"w1"`, "127.0.0.1:9", "[3 5]", "connection reset"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
	if !errors.Is(wd, cause) {
		t.Error("Unwrap does not reach the cause")
	}
	if !IsWorkerDown(wd) {
		t.Error("IsWorkerDown(direct) = false")
	}
	if !IsWorkerDown(fmt.Errorf("session 3: %w", wd)) {
		t.Error("IsWorkerDown(wrapped) = false")
	}
	if IsWorkerDown(nil) || IsWorkerDown(errors.New("other")) {
		t.Error("IsWorkerDown false positive")
	}
	// The minimal error still names the worker.
	if msg := (&WorkerDownError{Worker: "w9"}).Error(); !strings.Contains(msg, `"w9"`) {
		t.Errorf("minimal Error() = %q", msg)
	}
}
