package streamdag

import (
	"context"
	"reflect"
	"sync"
)

// This file is the typed rim of the Flow API: Source and Sink adapters
// that let applications keep static types at the pipeline's edges while
// the wrapped any-based endpoints (source_sink.go) do the actual
// ingestion and delivery.  A typed sink that receives a payload of the
// wrong dynamic type reports a *StageTypeError instead of panicking.

// TypedSource adapts a typed next function to Source: next returns the
// next element, ok=false to end the stream, or an error to abort the
// run.
func TypedSource[T any](next func(ctx context.Context) (T, bool, error)) Source {
	return SourceFunc(func(ctx context.Context) (any, bool, error) {
		v, ok, err := next(ctx)
		if !ok || err != nil {
			return nil, false, err
		}
		return v, true, nil
	})
}

// TypedSink adapts a typed emit function to Sink.  A payload whose
// dynamic type is not T aborts the run with a *StageTypeError naming the
// sink — the delivery-side counterpart of the flow's stage boundary
// checks.
func TypedSink[T any](emit func(ctx context.Context, seq uint64, v T) error) Sink {
	return SinkFunc(func(ctx context.Context, seq uint64, payload any) error {
		v, err := sinkValue[T](seq, payload)
		if err != nil {
			return err
		}
		return emit(ctx, seq, v)
	})
}

// sinkValue asserts a sink delivery's payload as T; a payload of another
// dynamic type is a runtime *StageTypeError naming the sink.
func sinkValue[T any](seq uint64, payload any) (T, error) {
	v, ok := assertAs[T](payload)
	if !ok {
		return v, &StageTypeError{
			Stage: "sink", Want: typeOf[T](), Got: reflect.TypeOf(payload),
			Seq: seq, Runtime: true,
		}
	}
	return v, nil
}

// TypedEmission is one delivery at a typed collector.
type TypedEmission[T any] struct {
	Seq   uint64
	Value T
}

// TypedCollector is the typed Collector: a Sink that accumulates every
// emission in memory for tests and small runs.  It is safe for
// concurrent Emit and may be read once Run returns.  The zero value is
// ready to use.
type TypedCollector[T any] struct {
	mu        sync.Mutex
	emissions []TypedEmission[T]
}

// Emit implements Sink; a payload that is not T is a *StageTypeError.
func (c *TypedCollector[T]) Emit(_ context.Context, seq uint64, payload any) error {
	v, err := sinkValue[T](seq, payload)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.emissions = append(c.emissions, TypedEmission[T]{Seq: seq, Value: v})
	c.mu.Unlock()
	return nil
}

// Emissions returns the collected emissions in delivery order (which is
// ascending sequence order).
func (c *TypedCollector[T]) Emissions() []TypedEmission[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]TypedEmission[T](nil), c.emissions...)
}

// Values returns just the collected element values, in delivery order.
func (c *TypedCollector[T]) Values() []T {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]T, len(c.emissions))
	for i, e := range c.emissions {
		out[i] = e.Value
	}
	return out
}
