package streamdag

import (
	"context"
	"sync"

	"streamdag/internal/box"
)

// This file defines the ingestion and delivery endpoints of the Pipeline
// API: a Source supplies the payloads injected at the topology's source
// node, and a Sink receives the sink node's data-carrying firings in
// ascending sequence order.  Constructors cover the common shapes —
// channels and slices of any element type, callbacks, a collector —
// plus a synthetic sequence-number source.

// Source supplies the stream's payloads: Pipeline.Run pulls from it at
// the topology's source node, assigning consecutive sequence numbers in
// ingestion order.  Next returns ok=false to end the stream; a non-nil
// error aborts the run.  The context passed in is the run's — it is
// cancelled when the run dies, so a blocked Source must select on
// ctx.Done().  Sources are generally stateful: use one per Run.
type Source interface {
	Next(ctx context.Context) (payload any, ok bool, err error)
}

// SourceFunc adapts a function to Source.
type SourceFunc func(ctx context.Context) (payload any, ok bool, err error)

// Next implements Source.
func (f SourceFunc) Next(ctx context.Context) (any, bool, error) { return f(ctx) }

// SpanSource is the optional bulk-ingestion extension of Source: the
// runtime backends' ingest pump hands NextSpan the free segment of its
// ingest ring to fill in one call — n payloads (order preserved, sequence
// numbers assigned as if each had been returned by Next) plus eof when
// the stream ends; eof may accompany a final non-empty fill, and an
// error-free zero fill also ends the stream.  buf is the ring itself, so
// it may be shorter than the window's room where the ring wraps (the next
// call gets the rest), and it is valid only during the call: keep no
// reference to it.  Next is then called only by the Simulator.
// The payloads of one fill are published to the topology together, so
// implement SpanSource only when payloads never depend on the downstream
// observing earlier ones — counters, slices, replay logs.  A
// request/response feedback source must stick to Source: the runtime
// calls its Next once per payload and publishes each before the next.
type SpanSource interface {
	Source
	NextSpan(ctx context.Context, buf []any) (n int, eof bool, err error)
}

// countingSource implements SpanSource for CountingSource.  A source is
// pulled by one goroutine at a time, so its payloads are boxed from one
// arena of its own.
type countingSource struct {
	next, n uint64
	arena   box.Arena[uint64]
}

func (c *countingSource) Next(context.Context) (any, bool, error) {
	if c.next >= c.n {
		return nil, false, nil
	}
	v := c.arena.One(c.next)
	c.next++
	return v, true, nil
}

var boxUint64 = box.For[uint64]()

func (c *countingSource) NextSpan(_ context.Context, buf []any) (int, bool, error) {
	n := len(buf)
	if left := c.n - c.next; left < uint64(n) {
		n = int(left)
	}
	ch := c.arena.Load(n)
	for k := 0; k < n; k++ {
		buf[k] = c.arena.Box(c.next, &ch)
		c.next++
	}
	c.arena.Store(ch)
	return n, c.next >= c.n, nil
}

// Rewind implements ReplayableSource: the count restarts at zero.
func (c *countingSource) Rewind() error {
	c.next = 0
	return nil
}

// sliceSource implements SpanSource for SliceSource.
type sliceSource[T any] struct {
	elems []T
	i     int
}

func (s *sliceSource[T]) Next(context.Context) (any, bool, error) {
	if s.i >= len(s.elems) {
		return nil, false, nil
	}
	v := s.elems[s.i]
	s.i++
	return v, true, nil
}

func (s *sliceSource[T]) NextSpan(_ context.Context, buf []any) (int, bool, error) {
	n := min(len(buf), len(s.elems)-s.i)
	for k, v := range s.elems[s.i : s.i+n] {
		buf[k] = v
	}
	s.i += n
	return n, s.i >= len(s.elems), nil
}

// Rewind implements ReplayableSource: ingestion restarts at the first
// element.
func (s *sliceSource[T]) Rewind() error {
	s.i = 0
	return nil
}

// ChannelSource ingests elements from ch until it is closed.  A blocked
// receive unblocks (and the run winds down) when the run's context is
// cancelled.
func ChannelSource[T any](ch <-chan T) Source {
	return SourceFunc(func(ctx context.Context) (any, bool, error) {
		select {
		case v, ok := <-ch:
			if !ok {
				return nil, false, nil
			}
			return v, true, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	})
}

// SliceSource ingests the given elements in order, then ends the
// stream.  It implements SpanSource, so batched runtimes ingest it in
// bulk, and ReplayableSource, so WithRetry can re-run it.
func SliceSource[T any](elems ...T) Source {
	return &sliceSource[T]{elems: elems}
}

// CountingSource is the synthetic arrangement: n payloads that are the
// sequence numbers 0..n-1 themselves (as uint64).  It implements
// SpanSource, so batched runtimes ingest it in bulk.
func CountingSource(n uint64) Source {
	return &countingSource{n: n, arena: boxUint64.Arena()}
}

// Emission is one sink-node delivery: the firing's sequence number and
// the payload that reached (or was produced at) the sink.
type Emission struct {
	Seq     uint64
	Payload any
}

// Sink receives the sink node's data-carrying firings in ascending
// sequence order.  A non-nil error aborts the run.  Emit may block —
// that is sink backpressure, and it propagates through the topology's
// finite buffers back to the Source — but a blocked Emit must select on
// ctx.Done() so cancellation can tear the run down.
type Sink interface {
	Emit(ctx context.Context, seq uint64, payload any) error
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(ctx context.Context, seq uint64, payload any) error

// Emit implements Sink.
func (f SinkFunc) Emit(ctx context.Context, seq uint64, payload any) error {
	return f(ctx, seq, payload)
}

// ChannelSink delivers emissions into ch.  A full channel blocks the
// sink node — backpressure — until the run's context is cancelled.  The
// channel is not closed when the stream ends; the Run call returning is
// the end-of-stream signal.
func ChannelSink(ch chan<- Emission) Sink {
	return SinkFunc(func(ctx context.Context, seq uint64, payload any) error {
		select {
		case ch <- Emission{Seq: seq, Payload: payload}:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
}

// SpanSink is the optional bulk-delivery extension of Sink: the runtime
// backends deliver every emission through EmitSpan.  One call carries the
// emissions the sink pump found queued — one or more firings, as parallel
// seqs/pays slices in ascending sequence order, up to the sink window,
// split over two calls where the pump's ring wraps.  The slices are only
// valid for the duration of the call.  The Simulator calls Emit per element, so
// implementations must keep both paths consistent.
type SpanSink interface {
	Sink
	EmitSpan(ctx context.Context, seqs []uint64, pays []any) error
}

// discardSink implements SpanSink for DiscardSink.
type discardSink struct{}

func (discardSink) Emit(context.Context, uint64, any) error         { return nil }
func (discardSink) EmitSpan(context.Context, []uint64, []any) error { return nil }

// DiscardSink drops every emission (they are still counted in
// RunStats.SinkData).  It implements SpanSink, so batched runtimes
// discard whole emission runs in one call.
func DiscardSink() Sink {
	return discardSink{}
}

// Collector is a Sink that accumulates every emission in memory, for
// tests and small runs.  It is safe for concurrent use and may be read
// once Run returns.
type Collector struct {
	mu        sync.Mutex
	emissions []Emission
}

// Emit implements Sink.
func (c *Collector) Emit(_ context.Context, seq uint64, payload any) error {
	c.mu.Lock()
	c.emissions = append(c.emissions, Emission{Seq: seq, Payload: payload})
	c.mu.Unlock()
	return nil
}

// Emissions returns the collected emissions in delivery order (which is
// ascending sequence order).
func (c *Collector) Emissions() []Emission {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Emission(nil), c.emissions...)
}
