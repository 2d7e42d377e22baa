// Package streamdag is a library for building and safely executing
// streaming computations with filtering, reproducing
//
//	Buhler, Agrawal, Li, Chamberlain:
//	"Efficient Deadlock Avoidance for Streaming Computation with
//	Filtering" (PPoPP 2012 / WUCSE-2011-59).
//
// A streaming application is a DAG of compute nodes joined by bounded
// FIFO channels.  Nodes may filter — drop an input with respect to any
// subset of their output channels — and with finite buffers that freedom
// can deadlock even an acyclic topology.  The paper's remedy is dummy
// messages sent at per-edge intervals computable in polynomial time for
// series-parallel DAGs and, more generally, CS4 DAGs (every undirected
// cycle has one source and one sink).  The library owns that reasoning
// entirely: no user code ever sees a dummy message.
//
// # The two API tiers
//
// The Flow builder is the high-level, typed surface.  Stages are plain
// Go functions composed with generics — Map, FilterStage, FilterMap,
// Stateful, and Split/Merge for fan-out/fan-in — and Flow.Compile lowers
// the stage graph to a topology, classifies it, computes the dummy
// intervals, and returns a runnable Pipeline.  Filtering — the paper's
// key feature — is a first-class typed operation: a FilterStage (or any
// false-returning stage function) compiles to a kernel that filters with
// respect to every output, and the computed intervals keep the run
// deadlock-free.  Any stage scales out with Replicate(k); payload type
// mismatches at stage boundaries surface as a *StageTypeError naming the
// stage, never a panic.  See ExampleNewFlow.
//
// The kernel tier is the explicit surface underneath: construct a
// Topology channel by channel, implement Kernel (positional inputs in,
// out-edge-keyed outputs, absent keys filter), and Build it with
// WithKernel / WithRouting options.  It expresses irregular shapes the
// stage vocabulary cannot — cross-links, SP-ladders, butterflies — and
// is what Flow.Compile itself targets.  See ExampleBuild.
//
// Both tiers produce the same Pipeline type, run on the same three
// backends (the goroutine runtime, the deterministic simulator,
// TCP-distributed workers), and may be mixed: a Flow-compiled pipeline
// accepts the ordinary Build options.
//
// # Execution: Engine and sessions
//
// Execution is engine-shaped: Pipeline.Engine (or Flow.CompileEngine)
// starts the backend's resident workers once, and Engine.Open starts
// one logical stream — a Session with its own Source/Sink, sequence
// space, cancellation, and completion error — multiplexed with any
// number of concurrent sessions over the shared topology.  The dummy
// protocol state and the per-edge buffer windows are per session, so
// the deadlock-freedom guarantee holds for each stream independently,
// and a wedged session is reported by a DeadlockError naming its id
// while the others keep streaming.  Pipeline.Run is engine up, one
// session, engine down; services streaming more than once should hold
// an Engine.
//
// # Backends and batching
//
// WithBackend picks the goroutine runtime (the default), the
// deterministic simulator, or loopback-TCP workers; WithMaxBatch (per
// stage: Stage.Batch) lets the runtime backends carry runs of up to n
// messages per transport unit without changing the logical stream.
// DESIGN.md tells both stories once: "Architecture", "Distributed
// transport" and "Batched hot path".
//
// # Time-aware stages
//
// TumblingWindow, SlidingWindow, SessionWindow, Throttle, Debounce,
// Dedupe, and Sample bring processing time into the Flow vocabulary.
// Each compiles to a kernel around an injected Clock: the runtime
// backends default to the wall clock, while the Simulator substitutes
// a deterministic virtual clock advanced by its round-robin scheduler,
// so windowed runs there are bit-reproducible — the same flow and
// input always produce identical window boundaries and contents.
// WithClock overrides the source of time explicitly (a *FakeClock
// makes wall-clock backends deterministic too, advanced by the test).
// Window flushes are timer-driven mid-stream, a session idling inside
// an open window is never misreported as deadlocked, and window state
// resets across fault retries so replayed bursts never double-count.
// Time-aware stages take exactly one input stream and cannot be
// replicated or placed inside a Split branch — Compile rejects those
// placements with an explanatory error.
package streamdag
