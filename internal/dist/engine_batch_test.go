package dist

// Run parity: a resident engine moves runs — many messages per run frame,
// many frames per write — but the logical stream each session observes —
// per-edge data/dummy counts and the ordered sink sequence — must be
// identical from engine to engine.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

func engineBatchRun(t *testing.T, g *graph.Graph, part Partition, kernels map[graph.NodeID]stream.Kernel, cfg Config, inputs, sessions int) ([]*Stats, [][]string) {
	t.Helper()
	eng, err := NewEngine(g, part, kernels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stats := make([]*Stats, sessions)
	seen := make([][]string, sessions)
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			i := 0
			source := func(context.Context) (any, bool, error) {
				if i >= inputs {
					return nil, false, nil
				}
				v := fmt.Sprintf("s%d-%d", s, i)
				i++
				return v, true, nil
			}
			ses, err := eng.Open(SessionIO{
				ID:     proto.SessionID(s + 1),
				Source: source,
				Sink: func(_ context.Context, seq uint64, payload any) error {
					seen[s] = append(seen[s], payload.(string))
					return nil
				},
			})
			if err != nil {
				errs[s] = err
				return
			}
			stats[s], errs[s] = ses.Wait()
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return stats, seen
}

func TestEngineCoalescedParity(t *testing.T) {
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
	kernels := engineKernels(g, workload.DropEdge(ac))
	part := Partition{}
	for n := 0; n < g.NumNodes(); n++ {
		if n%2 == 0 {
			part[graph.NodeID(n)] = "alpha"
		} else {
			part[graph.NodeID(n)] = "beta"
		}
	}
	base := Config{Algorithm: cs4.Propagation, Intervals: iv, WatchdogTimeout: 5 * time.Second}
	const inputs, sessions = 150, 3

	refStats, refSeen := engineBatchRun(t, g, part, kernels, base, inputs, sessions)
	stats, seen := engineBatchRun(t, g, part, kernels, base, inputs, sessions)
	for s := 0; s < sessions; s++ {
		if stats[s].SinkData != refStats[s].SinkData {
			t.Errorf("session %d: SinkData = %d, want %d", s, stats[s].SinkData, refStats[s].SinkData)
		}
		for e, want := range refStats[s].Data {
			if stats[s].Data[e] != want {
				t.Errorf("session %d: edge %d data = %d, want %d", s, e, stats[s].Data[e], want)
			}
		}
		for e, want := range refStats[s].Dummies {
			if stats[s].Dummies[e] != want {
				t.Errorf("session %d: edge %d dummies = %d, want %d", s, e, stats[s].Dummies[e], want)
			}
		}
		if len(seen[s]) != len(refSeen[s]) {
			t.Fatalf("session %d: %d sink deliveries, want %d", s, len(seen[s]), len(refSeen[s]))
		}
		for i := range seen[s] {
			if seen[s][i] != refSeen[s][i] {
				t.Fatalf("session %d: sink[%d] = %q, want %q", s, i, seen[s][i], refSeen[s][i])
			}
		}
	}
}
