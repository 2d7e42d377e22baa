package streamdag

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"streamdag/internal/sim"
	"streamdag/internal/stream"
)

// halfKernel is written in the slice calling convention: ProcessInto
// keeps the even payloads of a counting stream and filters the odd ones.
// Process, its map form, only counts its calls — nothing inside the
// module may make one.
type halfKernel struct{ calls *atomic.Int64 }

func (k halfKernel) Process(uint64, []Input) map[int]any {
	k.calls.Add(1)
	return nil
}

func (k halfKernel) ProcessInto(_ uint64, in []Input, out []any, present []bool) {
	if v := in[0].Payload.(uint64); v%2 == 0 {
		out[0], present[0] = v, true
	}
}

// TestProcessBelongsToTheAdapter pins that every backend, the simulator
// that serves as their reference and the replicas of a replicated node
// fire a kernel through ProcessInto: a map-returning Process is only for
// user Kernels that have nothing else.  Each backend runs source → work
// → sink plain and with work replicated twice, at batch 1 and 64;
// Distributed alternates the nodes across two workers, so the replicas'
// MergeBundles — all-absent ones for every filtered input — cross TCP
// through the codec's gob fallback.  Counts and the sink sequence equal
// sim.Run's on the same expanded topology and kernels.
func TestProcessBelongsToTheAdapter(t *testing.T) {
	const inputs = 300
	for _, k := range []int{1, 2} {
		for _, batch := range []int{1, 64} {
			for _, backend := range []string{"goroutines", "simulator", "distributed"} {
				t.Run(fmt.Sprintf("k%d/batch%d/%s", k, batch, backend), func(t *testing.T) {
					var calls atomic.Int64
					topo := NewTopology()
					topo.Channel("source", "work", 8)
					topo.Channel("work", "sink", 8)
					pipe, err := Build(topo,
						WithKernel("work", halfKernel{calls: &calls}),
						WithReplication(ReplicationPlan{"work": k}),
						WithMaxBatch(batch), WithWatchdog(10*time.Second))
					if err != nil {
						t.Fatal(err)
					}
					pipe.backend = parityBackends(pipe)[backend]
					var col Collector
					stats, err := pipe.Run(context.Background(), CountingSource(inputs), &col)
					if err != nil {
						t.Fatal(err)
					}

					var want []Emission
					ref := sim.Run(pipe.topo.g, nil, sim.Config{
						Inputs: inputs, Algorithm: pipe.alg, Intervals: pipe.intervals, Kernels: pipe.kernels,
						Sink: func(_ context.Context, seq uint64, p any) error {
							want = append(want, Emission{Seq: seq, Payload: p})
							return nil
						},
					})
					if !ref.Completed {
						t.Fatalf("sim.Run: %s %v", ref.Reason, ref.Blocked)
					}
					for e := EdgeID(0); int(e) < pipe.topo.g.NumEdges(); e++ {
						if stats.Data[e] != ref.DataMsgs[e] || stats.Dummies[e] != ref.DummyMsgs[e] {
							t.Errorf("edge %d: data %d/dummies %d, sim.Run %d/%d", e,
								stats.Data[e], stats.Dummies[e], ref.DataMsgs[e], ref.DummyMsgs[e])
						}
					}
					got := col.Emissions()
					if stats.SinkData != inputs/2 || len(got) != len(want) || ref.SinkData != inputs/2 {
						t.Fatalf("sink: %d data, %d emissions; sim.Run %d data, %d emissions; want %d",
							stats.SinkData, len(got), ref.SinkData, len(want), inputs/2)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("emission %d: %+v, sim.Run %+v", i, got[i], want[i])
						}
					}
					if n := calls.Load(); n != 0 {
						t.Errorf("the kernel's map-form Process was called %d times", n)
					}
				})
			}
		}
	}
}

// TestPublicKernelsKeepTheirMapForm pins that the library's kernels still
// answer Process, for callers holding a plain Kernel: it returns exactly
// the slots ProcessInto fills, given max(nOut, 1) of them.
func TestPublicKernelsKeepTheirMapForm(t *testing.T) {
	topo := fig1(t)
	double := func(v any) any { return 2 * v.(uint64) }
	type kernelCase struct {
		name      string
		k         Kernel
		nIn, nOut int
	}
	cases := []kernelCase{
		{"Passthrough(2)", stream.Passthrough(2), 1, 2},
		{"MapKernel(0) at a sink", MapKernel(0, double), 1, 0},
		{"MapKernel(3)", MapKernel(3, double), 1, 3},
	}
	for id, k := range RouteKernels(topo, Bernoulli(0.5, 3)) {
		g := topo.Graph()
		cases = append(cases, kernelCase{"RouteKernels " + g.Name(id), k, max(g.InDegree(id), 1), g.OutDegree(id)})
	}
	for _, c := range cases {
		sk, ok := c.k.(stream.SliceKernel)
		if !ok {
			t.Errorf("%s: no ProcessInto", c.name)
			continue
		}
		for seq := uint64(0); seq < 32; seq++ {
			in := make([]Input, c.nIn)
			for i := range in {
				// Some inputs absent, and every one of them now and then.
				if (seq+uint64(i))%3 != 0 {
					in[i] = Input{Present: true, Payload: 1000 + seq}
				}
			}
			out, present := make([]any, max(c.nOut, 1)), make([]bool, max(c.nOut, 1))
			sk.ProcessInto(seq, in, out, present)
			outs := c.k.Process(seq, in)
			n := 0
			for i := range out {
				if !present[i] {
					continue
				}
				n++
				if v, ok := outs[i]; !ok || v != out[i] {
					t.Errorf("%s seq %d: Process slot %d = %v (%v), ProcessInto %v", c.name, seq, i, v, ok, out[i])
				}
			}
			if len(outs) != n {
				t.Errorf("%s seq %d: Process emits on %d slots, ProcessInto on %d", c.name, seq, len(outs), n)
			}
		}
	}
}
