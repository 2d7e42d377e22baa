// Package fault is the engine-wide fault-tolerance vocabulary shared by
// the backends and the public API: typed worker-death errors, session
// retry policies, dead-letter routing for poisoned payloads, and the
// checkpoint a drained engine hands its successor.
//
// Like internal/proto, the package is pure mechanism: no goroutines, no
// sockets, no clocks of its own.  The distributed backend raises
// WorkerDownError; the public retry layer turns RetryPolicy into actual
// sleeps.  That split keeps every policy decision deterministic and
// unit-testable without a network.
package fault

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"
)

// WorkerDownError reports that a named worker went down (it was killed,
// or one of its TCP links broke) and which sessions that took down.  It
// replaces the generic I/O error or deadlock-watchdog trip a dead link
// used to surface as: callers can errors.As for it, read the worker
// name, and decide to retry on the re-linked topology.
type WorkerDownError struct {
	// Worker is the partition name of the dead worker.
	Worker string
	// Addr is the worker's last known listen address ("" if unknown).
	Addr string
	// Sessions are the IDs of the sessions that were active on the
	// topology when the worker died, ascending.
	Sessions []uint64
	// Cause is the underlying transport error, if any.
	Cause error
}

func (e *WorkerDownError) Error() string {
	msg := fmt.Sprintf("fault: worker %q down", e.Worker)
	if e.Addr != "" {
		msg += fmt.Sprintf(" (addr %s)", e.Addr)
	}
	if len(e.Sessions) > 0 {
		msg += fmt.Sprintf(", %d session(s) affected %v", len(e.Sessions), e.Sessions)
	}
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

func (e *WorkerDownError) Unwrap() error { return e.Cause }

// IsWorkerDown reports whether err is (or wraps) a *WorkerDownError.
func IsWorkerDown(err error) bool {
	var wd *WorkerDownError
	return errors.As(err, &wd)
}

// RetryPolicy describes how many times a failed session is re-opened
// and how long to wait between attempts.  The zero value never retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, including the first
	// (so 3 means "retry twice").  Values < 1 behave as 1.
	MaxAttempts int
	// Backoff is the delay before the first retry.
	Backoff time.Duration
	// Factor multiplies the delay after each retry; values <= 1 mean
	// constant backoff.
	Factor float64
	// MaxBackoff caps the grown delay; 0 means uncapped.
	MaxBackoff time.Duration
}

// Delay returns the wait before retry attempt n (n=1 is the first
// retry).  Deterministic — no jitter — so recovery tests are exact.
func (p RetryPolicy) Delay(n int) time.Duration {
	if n < 1 || p.Backoff <= 0 {
		return 0
	}
	d := p.Backoff
	if p.Factor > 1 {
		for i := 1; i < n; i++ {
			d = time.Duration(float64(d) * p.Factor)
			if p.MaxBackoff > 0 && d >= p.MaxBackoff {
				return p.MaxBackoff
			}
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		return p.MaxBackoff
	}
	return d
}

// Attempts returns the effective attempt budget (at least 1).
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// DeadLetter is one payload routed out of the stream after repeated
// delivery failure: the poisoned message, where it sat in the session's
// sink order, and the error that condemned it.
type DeadLetter struct {
	// Session is the public session ID the payload belonged to.
	Session uint64
	// Seq is the payload's sink sequence number within the session.
	Seq uint64
	// Payload is the value that could not be delivered.
	Payload any
	// Attempts is how many session attempts failed on it before routing.
	Attempts int
	// Err is the sink error from the last failed delivery.
	Err error
}

// DeadLetterSink receives payloads the retry layer gave up on.  Push
// must be safe for concurrent use; it must not block for long (it runs
// on the session's sink path).
type DeadLetterSink interface {
	Push(DeadLetter)
}

// Queue is an in-memory DeadLetterSink that records every letter, for
// tests and small deployments.
type Queue struct {
	mu      sync.Mutex
	letters []DeadLetter
}

// Push appends the letter.
func (q *Queue) Push(l DeadLetter) {
	q.mu.Lock()
	q.letters = append(q.letters, l)
	q.mu.Unlock()
}

// Letters returns a copy of everything dead-lettered so far.
func (q *Queue) Letters() []DeadLetter {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]DeadLetter(nil), q.letters...)
}

// Len returns the number of letters recorded.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.letters)
}

// Checkpoint is what Drain hands a successor engine: the topology it
// belongs to and the session-ID allocator, so resumed engines never
// reuse an ID.  It carries no per-session state — Drain returns only
// after every session has finished.
type Checkpoint struct {
	// Topology fingerprints the graph the checkpoint belongs to;
	// restoring onto a different topology is refused.
	Topology string
	// NextSession is the engine's next unallocated session ID.
	NextSession uint64
}

// Encode serializes the checkpoint with gob.
func (c *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, fmt.Errorf("fault: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint deserializes an Encode'd checkpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&c); err != nil {
		return nil, fmt.Errorf("fault: decode checkpoint: %w", err)
	}
	return &c, nil
}
