package streamdag

import (
	"context"
	"fmt"
	"testing"
)

// splitjoinPipeline builds the benchmark harness's splitjoin_filter graph
// (in → split, four two-stage branches, join → out, every buffer 64) with
// pass-through kernels.
func splitjoinPipeline(tb testing.TB) *Pipeline {
	tb.Helper()
	t := NewTopology()
	t.Channel("in", "split", 64)
	for i := 0; i < 4; i++ {
		a, c := fmt.Sprintf("b%da", i), fmt.Sprintf("b%db", i)
		t.Channel("split", a, 64)
		t.Channel(a, c, 64)
		t.Channel(c, "join", 64)
	}
	t.Channel("join", "out", 64)
	p, err := Build(t)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkEngineStartClose times a resident engine's start and close on
// the splitjoin_filter graph: the node goroutines, their scratch, the
// watchdog, and their teardown, with no session.
func BenchmarkEngineStartClose(b *testing.B) {
	p := splitjoinPipeline(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, err := p.Engine()
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetupCycle is a cold cycle on the splitjoin_filter graph:
// start an engine, stream one message through a session, close.
func BenchmarkSetupCycle(b *testing.B) {
	p := splitjoinPipeline(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, err := p.Engine()
		if err != nil {
			b.Fatal(err)
		}
		ses, err := eng.Open(context.Background(), CountingSource(1), DiscardSink())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ses.Wait(); err != nil {
			b.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSetupAllocBudget caps the allocations of the two set-up layers a
// cold cycle pays before its first session, on the splitjoin_filter
// graph: classification (Analyze) and a resident engine's start and
// close.  They read 32 and 80 once classification went map-free and
// NewEngine cut every node's struct, mailbox and scratch from per-engine
// arrays, down from 225 and 259.
func TestSetupAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark")
	}
	p := splitjoinPipeline(t)
	analyze := testing.AllocsPerRun(100, func() {
		if _, err := Analyze(p.topo); err != nil {
			t.Fatal(err)
		}
	})
	engine := testing.AllocsPerRun(100, func() {
		eng, err := p.Engine()
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Analyze: %.1f allocations; Engine and Close: %.1f", analyze, engine)
	if analyze > 40 {
		t.Errorf("Analyze allocates %.1f times; want at most 40", analyze)
	}
	if engine > 90 {
		t.Errorf("Engine and Close allocate %.1f times; want at most 90", engine)
	}
}
