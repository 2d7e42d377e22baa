package sim_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/sim"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

func engineKernels(g *graph.Graph, f workload.FilterFunc) map[graph.NodeID]stream.Kernel {
	ks := make(map[graph.NodeID]stream.Kernel, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		out := g.Out(id)
		ks[id] = stream.KernelFunc(func(seq uint64, in []stream.Input) map[int]any {
			var payload any = seq
			for _, i := range in {
				if i.Present {
					payload = i.Payload
					break
				}
			}
			outs := make(map[int]any, len(out))
			for i, e := range out {
				if f(id, seq, e) {
					outs[i] = payload
				}
			}
			return outs
		})
	}
	return ks
}

func sliceSrc(payloads []any) stream.SourceFunc {
	i := 0
	return func(context.Context) (any, bool, error) {
		if i >= len(payloads) {
			return nil, false, nil
		}
		v := payloads[i]
		i++
		return v, true, nil
	}
}

// TestEngineDeterministicInterleaving runs the same three sessions twice
// over fresh engines: per-session results (counts, steps, emission
// transcripts) and the global callback interleaving must be identical.
func TestEngineDeterministicInterleaving(t *testing.T) {
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
	run := func() (results []*sim.Result, transcript []string) {
		eng := sim.NewEngine(g, sim.Config{
			Algorithm: cs4.Propagation,
			Intervals: iv,
			Kernels:   engineKernels(g, workload.DropEdge(ac)),
		})
		defer eng.Close()
		// The scheduler admits opened sessions at round boundaries and
		// runs beside this goroutine, so pin the round: session 0 waits
		// inside its first source call until all three are open, and the
		// other two join at round 2 however the goroutines are timed.
		entered, allOpen := make(chan struct{}), make(chan struct{})
		sessions := make([]*sim.EngineSession, 3)
		for s := range sessions {
			payloads := make([]any, 50+10*s)
			for i := range payloads {
				payloads[i] = fmt.Sprintf("s%d-%d", s, i)
			}
			src := sliceSrc(payloads)
			if s == 0 {
				first, once := src, sync.Once{}
				src = func(ctx context.Context) (any, bool, error) {
					once.Do(func() { close(entered); <-allOpen })
					return first(ctx)
				}
			}
			sid := s
			ses, err := eng.Open(sim.SessionIO{
				ID:     proto.SessionID(s + 1),
				Source: src,
				Sink: func(_ context.Context, seq uint64, payload any) error {
					transcript = append(transcript, fmt.Sprintf("s%d:%d:%v", sid, seq, payload))
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			sessions[s] = ses
			if s == 0 {
				<-entered
			}
		}
		close(allOpen)
		for _, ses := range sessions {
			res := ses.Wait()
			if !res.Completed {
				t.Fatalf("session %d: %s %v", ses.ID(), res.Reason, res.Blocked)
			}
			results = append(results, res)
		}
		return results, transcript
	}

	res1, tr1 := run()
	res2, tr2 := run()
	for i := range res1 {
		if res1[i].Steps != res2[i].Steps || res1[i].SinkData != res2[i].SinkData {
			t.Fatalf("session %d diverged: steps %d vs %d, sink %d vs %d",
				i, res1[i].Steps, res2[i].Steps, res1[i].SinkData, res2[i].SinkData)
		}
		for e, want := range res1[i].DataMsgs {
			if res2[i].DataMsgs[e] != want {
				t.Fatalf("session %d edge %d data diverged", i, e)
			}
		}
	}
	if len(tr1) != len(tr2) {
		t.Fatalf("transcript lengths diverged: %d vs %d", len(tr1), len(tr2))
	}
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("interleaving diverged at %d: %q vs %q", i, tr1[i], tr2[i])
		}
	}

	// Each session's result must equal a solo Run of the same stream.
	for s := 0; s < 3; s++ {
		payloads := make([]any, 50+10*s)
		for i := range payloads {
			payloads[i] = fmt.Sprintf("s%d-%d", s, i)
		}
		solo := sim.Run(g, nil, sim.Config{
			Algorithm: cs4.Propagation,
			Intervals: iv,
			Kernels:   engineKernels(g, workload.DropEdge(ac)),
			Source:    sliceSrc(payloads),
		})
		if !solo.Completed {
			t.Fatalf("solo run %d: %s", s, solo.Reason)
		}
		if solo.SinkData != res1[s].SinkData {
			t.Fatalf("session %d SinkData %d, solo %d", s, res1[s].SinkData, solo.SinkData)
		}
		for e, want := range solo.DataMsgs {
			if res1[s].DataMsgs[e] != want {
				t.Fatalf("session %d edge %d data %d, solo %d", s, e, res1[s].DataMsgs[e], want)
			}
		}
		for e, want := range solo.DummyMsgs {
			if res1[s].DummyMsgs[e] != want {
				t.Fatalf("session %d edge %d dummies %d, solo %d", s, e, res1[s].DummyMsgs[e], want)
			}
		}
	}
}
