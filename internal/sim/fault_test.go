package sim_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"streamdag/internal/cs4"
	"streamdag/internal/fault"
	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/sim"
	"streamdag/internal/workload"
)

// faultFixture builds the Fig. 2 triangle with a dropped A→C edge (so
// filtering and dummy traffic are both in play) and returns everything
// a fault run needs.
func faultFixture(t *testing.T) (*graph.Graph, sim.Config) {
	t.Helper()
	g := workload.Fig2Triangle(2)
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := d.Intervals(cs4.Propagation)
	if err != nil {
		t.Fatal(err)
	}
	var ac graph.EdgeID
	for _, e := range g.Edges() {
		if g.Name(e.From) == "A" && g.Name(e.To) == "C" {
			ac = e.ID
		}
	}
	part := make(map[graph.NodeID]string, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		part[graph.NodeID(n)] = "w" + g.Name(graph.NodeID(n))
	}
	return g, sim.Config{
		Algorithm: cs4.Propagation,
		Intervals: iv,
		Kernels:   engineKernels(g, workload.DropEdge(ac)),
		Partition: part,
	}
}

func payloadsN(n int) []any {
	ps := make([]any, n)
	for i := range ps {
		ps[i] = fmt.Sprintf("p%d", i)
	}
	return ps
}

func runWith(g *graph.Graph, cfg sim.Config, n int) (*sim.Result, []string) {
	var out []string
	cfg.Source = sliceSrc(payloadsN(n))
	cfg.Sink = func(_ context.Context, seq uint64, payload any) error {
		out = append(out, fmt.Sprintf("%d:%v", seq, payload))
		return nil
	}
	return sim.Run(g, nil, cfg), out
}

// TestFaultRollbackBitIdentical pins the oracle's core guarantee: a
// transient worker kill under checkpointing leaves the session's
// user-visible output AND its logical per-edge protocol counts
// bit-identical to a run with no fault at all.
func TestFaultRollbackBitIdentical(t *testing.T) {
	g, base := faultFixture(t)
	const inputs = 120
	ref, refOut := runWith(g, base, inputs)
	if !ref.Completed {
		t.Fatalf("reference run: %s %v", ref.Reason, ref.Blocked)
	}
	for _, worker := range []string{"wA", "wB", "wC"} {
		for _, step := range []int64{3, ref.Steps / 2, ref.Steps - 5} {
			for _, every := range []int64{1, 16, 64} {
				for _, batch := range []int{1, 8} {
					name := fmt.Sprintf("%s/step=%d/ckpt=%d/batch=%d", worker, step, every, batch)
					cfg := base
					cfg.MaxBatch = batch
					cfg.Faults = []fault.Injection{{Worker: worker, Step: step}}
					cfg.CheckpointEvery = every
					res, out := runWith(g, cfg, inputs)
					if !res.Completed {
						t.Fatalf("%s: run failed: %s %v (err %v)", name, res.Reason, res.Blocked, res.Err)
					}
					if res.SinkData != ref.SinkData {
						t.Fatalf("%s: SinkData %d, want %d", name, res.SinkData, ref.SinkData)
					}
					if len(out) != len(refOut) {
						t.Fatalf("%s: %d sink deliveries, want %d", name, len(out), len(refOut))
					}
					for i := range out {
						if out[i] != refOut[i] {
							t.Fatalf("%s: delivery %d = %q, want %q", name, i, out[i], refOut[i])
						}
					}
					if batch == 1 {
						// Per-edge logical counts roll back exactly (the
						// batched path changes Steps, not counts — pinned
						// by the batching parity suite; here we pin the
						// rollback accounting on the canonical path).
						for e, want := range ref.DataMsgs {
							if res.DataMsgs[e] != want {
								t.Fatalf("%s: edge %d data %d, want %d", name, e, res.DataMsgs[e], want)
							}
						}
						for e, want := range ref.DummyMsgs {
							if res.DummyMsgs[e] != want {
								t.Fatalf("%s: edge %d dummies %d, want %d", name, e, res.DummyMsgs[e], want)
							}
						}
					}
				}
			}
		}
	}
}

// TestFaultPermanentTyped pins the unrecoverable path: a permanent kill
// fails the session with a *fault.WorkerDownError naming the worker,
// even with checkpointing on.
func TestFaultPermanentTyped(t *testing.T) {
	g, cfg := faultFixture(t)
	cfg.Faults = []fault.Injection{{Worker: "wB", Step: 10, Permanent: true}}
	cfg.CheckpointEvery = 8
	res, _ := runWith(g, cfg, 60)
	if res.Completed {
		t.Fatal("run completed through a permanent worker kill")
	}
	if res.Reason != "worker down" {
		t.Fatalf("reason %q, want %q", res.Reason, "worker down")
	}
	var wd *fault.WorkerDownError
	if !errors.As(res.Err, &wd) {
		t.Fatalf("err %T %v, want *fault.WorkerDownError", res.Err, res.Err)
	}
	if wd.Worker != "wB" {
		t.Fatalf("worker %q, want wB", wd.Worker)
	}
}

// TestFaultWithoutCheckpointFatal: no checkpointing means no rollback;
// a transient kill is as fatal as a permanent one (the retry layer
// above recovers by re-opening, not the oracle).
func TestFaultWithoutCheckpointFatal(t *testing.T) {
	g, cfg := faultFixture(t)
	cfg.Faults = []fault.Injection{{Worker: "wA", Step: 5}}
	res, _ := runWith(g, cfg, 60)
	if res.Completed || !fault.IsWorkerDown(res.Err) {
		t.Fatalf("completed=%v err=%v, want WorkerDownError", res.Completed, res.Err)
	}
}

// TestFaultUnhostedWorkerIgnored: killing a worker that hosts no nodes
// of the topology is a no-op.
func TestFaultUnhostedWorkerIgnored(t *testing.T) {
	g, cfg := faultFixture(t)
	cfg.Faults = []fault.Injection{{Worker: "nosuch", Step: 5}}
	res, _ := runWith(g, cfg, 60)
	if !res.Completed {
		t.Fatalf("run failed: %s (err %v)", res.Reason, res.Err)
	}
}

// TestEngineSharedFault: on a multi-session engine one injection fires
// once and every active session recovers; outputs match the no-fault
// interleaving exactly.
func TestEngineSharedFault(t *testing.T) {
	g, base := faultFixture(t)
	run := func(cfg sim.Config) map[int][]string {
		eng := sim.NewEngine(g, cfg)
		defer eng.Close()
		outs := make(map[int][]string)
		sessions := make([]*sim.EngineSession, 2)
		for s := range sessions {
			sid := s
			ses, err := eng.Open(sim.SessionIO{
				ID:     proto.SessionID(s + 1),
				Source: sliceSrc(payloadsN(80 + 20*s)),
				Sink: func(_ context.Context, seq uint64, payload any) error {
					outs[sid] = append(outs[sid], fmt.Sprintf("%d:%v", seq, payload))
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			sessions[s] = ses
		}
		for s, ses := range sessions {
			if res := ses.Wait(); !res.Completed {
				t.Fatalf("session %d: %s (err %v)", s, res.Reason, res.Err)
			}
		}
		return outs
	}
	ref := run(base)
	cfg := base
	cfg.Faults = []fault.Injection{{Worker: "wC", Step: 40}}
	cfg.CheckpointEvery = 16
	got := run(cfg)
	for s, want := range ref {
		if len(got[s]) != len(want) {
			t.Fatalf("session %d: %d deliveries, want %d", s, len(got[s]), len(want))
		}
		for i := range want {
			if got[s][i] != want[i] {
				t.Fatalf("session %d delivery %d = %q, want %q", s, i, got[s][i], want[i])
			}
		}
	}
}
