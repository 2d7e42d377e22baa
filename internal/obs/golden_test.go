package obs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/exposition.golden")

// fill adds next, next+1, … to every atomic.Int64 field of the struct
// *p points to, so no two counters hold the same value and a metric
// wired to the wrong counter shows in the output.
func fill(p any, next *int64) {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue
		}
		if c, ok := v.Field(i).Addr().Interface().(*atomic.Int64); ok {
			c.Add(*next)
			*next++
		}
	}
}

// fillAll fills every counter m holds: nodes, edges, the lifecycle
// scalars, the named links and a latency histogram across buckets.
func fillAll(m *Metrics, next *int64, links ...string) {
	for i := range m.nodes {
		fill(m.Node(i), next)
	}
	for i := range m.edges {
		fill(m.Edge(i), next)
		m.Edge(i).Sent.Add(100 * int64(i+1)) // a positive Depth, distinct per edge
	}
	fill(m.Sessions(), next)
	fill(m.Faults(), next)
	fill(m.Time(), next)
	for _, l := range links {
		fill(m.Link(l), next)
	}
	for _, v := range []int64{0, 5, 6, 1000 + *next} {
		m.Sessions().Latency.Observe(v)
	}
}

// TestExpositionGolden pins the bytes of every exposition the observer
// serves: Prometheus text of a snapshot, of its Delta and of a Delta
// against a snapshot with unmatched names, plus expvar JSON of each, in
// both time modes.  Regenerate with -update only when a metric is meant
// to change.
func TestExpositionGolden(t *testing.T) {
	nodes := []string{"src", `say "hi"`, `back\slash`}
	edges := []string{`src→say "hi"`, `say "hi"→back\slash`}
	links := []string{"w0→w1", "w1→w0"}

	var out bytes.Buffer
	section := func(title string, write func() error) {
		fmt.Fprintf(&out, "=== %s ===\n", title)
		if err := write(); err != nil {
			t.Fatalf("%s: %v", title, err)
		}
	}
	for _, virtual := range []bool{false, true} {
		next := int64(1)
		m := New(nodes, edges)
		m.SetVirtual(virtual)
		fillAll(m, &next, links...)
		prev := m.Snapshot()
		fillAll(m, &next, links...)
		cur := m.Snapshot()

		other := New([]string{"src", "gone"}, []string{"src→gone"})
		other.SetVirtual(virtual)
		fillAll(other, &next, links[1], "w9→w0")
		unmatched := cur.Delta(other.Snapshot())

		mode := fmt.Sprintf("virtual=%v", virtual)
		for _, c := range []struct {
			name string
			s    *Snapshot
		}{{"snapshot", cur}, {"delta", cur.Delta(prev)}, {"delta unmatched", unmatched}} {
			section(mode+" prometheus "+c.name, func() error { return WritePrometheus(&out, c.s) })
			section(mode+" expvar "+c.name, func() error { return WriteExpvar(&out, c.s) })
		}
	}

	const golden = "testdata/exposition.golden"
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("exposition differs from %s (rerun with -update if the change is meant):\n%s", golden, out.Bytes())
	}
}
