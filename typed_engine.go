package streamdag

import (
	"context"
	"fmt"
	"sync"
)

// This file is the typed rim of the Engine API: EngineOf and SessionOf
// carry a compiled flow's element types through to the long-lived
// execution surface, so a service can compile once and serve each
// request as a typed session — Push elements of In, range emissions of
// Out — without touching the any-based endpoints.

// EngineOf is a typed handle over a resident Engine for a flow that
// ingests In and emits Out.  Create it with Flow.CompileEngine; for
// custom Sources/Sinks use Compile + Pipeline.Engine instead.
type EngineOf[In, Out any] struct {
	eng *Engine
}

// CompileEngine compiles the flow (see Compile) and immediately starts
// its resident engine: the typed equivalent of Compile + Pipeline.Engine
// for services that serve many streams over one topology.
func (f *Flow[In, Out]) CompileEngine(opts ...Option) (*EngineOf[In, Out], error) {
	pipe, err := f.Compile(opts...)
	if err != nil {
		return nil, err
	}
	eng, err := pipe.Engine()
	if err != nil {
		return nil, err
	}
	return &EngineOf[In, Out]{eng: eng}, nil
}

// Close closes the underlying Engine.
func (e *EngineOf[In, Out]) Close() error { return e.eng.Close() }

// Open starts one typed session: feed it with Push (then CloseSend) and
// consume Out (which closes when the stream ends).  A session's
// emissions must be drained — an unread Out channel is sink
// backpressure, which stalls that session (and only that session) until
// read or cancelled.
func (e *EngineOf[In, Out]) Open(ctx context.Context) (*SessionOf[In, Out], error) {
	in := make(chan In)
	mid := make(chan TypedEmission[Out], 1)
	out := make(chan TypedEmission[Out])
	sink := TypedSink(func(ctx context.Context, seq uint64, v Out) error {
		select {
		case mid <- TypedEmission[Out]{Seq: seq, Value: v}:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	ses, err := e.eng.Open(ctx, ChannelSource(in), sink)
	if err != nil {
		return nil, err
	}
	s := &SessionOf[In, Out]{ses: ses, in: in, out: out}
	// The forwarder decouples the engine's sink from the user-facing
	// channel so Out can be closed safely: only the forwarder touches
	// out.  On a drained session every Emit completed before Done, so
	// the leftover in mid (at most one emission) is delivered with a
	// blocking send — the reader is expected to drain Out — and on a
	// failed or cancelled session the remainder is dropped.
	go func() {
		defer close(out)
		drain := func(held *TypedEmission[Out]) {
			if _, err := ses.Wait(); err != nil {
				return
			}
			if held != nil {
				out <- *held
			}
			for {
				select {
				case em := <-mid:
					out <- em
				default:
					return
				}
			}
		}
		for {
			select {
			case em := <-mid:
				select {
				case out <- em:
				case <-ses.Done():
					drain(&em)
					return
				}
			case <-ses.Done():
				drain(nil)
				return
			}
		}
	}()
	return s, nil
}

// SessionOf is one typed stream served by an EngineOf: a Session plus
// typed ingestion and delivery channels.
type SessionOf[In, Out any] struct {
	ses *Session
	in  chan In
	out chan TypedEmission[Out]

	// sendMu serializes Push against CloseSend so a racing CloseSend
	// yields an error from Push, never a send on a closed channel.
	sendMu     sync.Mutex
	sendClosed bool
}

// ID returns the session's id.
func (s *SessionOf[In, Out]) ID() SessionID { return s.ses.ID() }

// Push ingests one element, blocking under backpressure; it fails when
// ctx is cancelled, the session has ended, or CloseSend was called.  A
// concurrent CloseSend waits for an in-flight Push to resolve.
func (s *SessionOf[In, Out]) Push(ctx context.Context, v In) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.sendClosed {
		return fmt.Errorf("streamdag: session %d: Push after CloseSend", s.ses.ID())
	}
	select {
	case s.in <- v:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.ses.Done():
		return fmt.Errorf("streamdag: session %d has ended", s.ses.ID())
	}
}

// CloseSend ends the session's input; the stream drains and Out closes.
// Idempotent; safe to race with Push.
func (s *SessionOf[In, Out]) CloseSend() {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if !s.sendClosed {
		s.sendClosed = true
		close(s.in)
	}
}

// Out delivers the session's emissions in ascending sequence order; it
// is closed when the session resolves (drained, failed, or cancelled).
func (s *SessionOf[In, Out]) Out() <-chan TypedEmission[Out] { return s.out }

// Cancel aborts the session.
func (s *SessionOf[In, Out]) Cancel() { s.ses.Cancel() }

// Wait blocks until the session resolves and returns its stats; call it
// after draining Out.
func (s *SessionOf[In, Out]) Wait() (*RunStats, error) { return s.ses.Wait() }
