package obs

import "testing"

func TestSnapshotDelta(t *testing.T) {
	m := New([]string{"a", "b"}, []string{"a→b"})
	m.Node(0).Firings.Add(10)
	m.Node(0).ServiceTime.Add(100)
	m.Edge(0).Data.Add(5)
	m.Edge(0).Sent.Add(7)
	m.Edge(0).Consumed.Add(4)
	m.Sessions().Opened.Add(2)
	m.Sessions().Active.Add(1)
	m.Sessions().Latency.Observe(9)
	prev := m.Snapshot()

	m.Node(0).Firings.Add(3)
	m.Node(0).ServiceTime.Add(50)
	m.Edge(0).Data.Add(2)
	m.Edge(0).Sent.Add(2)
	m.Sessions().Opened.Add(1)
	m.Sessions().Latency.Observe(9)
	m.Faults().SessionRetries.Add(1)
	cur := m.Snapshot()

	d := cur.Delta(prev)
	if n := d.NodeByName("a"); n == nil || n.Firings != 3 || n.ServiceTime != 50 {
		t.Fatalf("node delta = %+v, want firings 3 service 50", n)
	}
	if n := d.NodeByName("b"); n == nil || n.Firings != 0 {
		t.Fatalf("idle node delta = %+v, want zero", n)
	}
	e := d.EdgeByName("a→b")
	if e == nil || e.Data != 2 {
		t.Fatalf("edge delta = %+v, want data 2", e)
	}
	if e.Depth != 5 { // gauge: current Sent-Consumed = 9-4
		t.Fatalf("depth = %d, want current gauge value 5", e.Depth)
	}
	if d.Sessions.Opened != 1 || d.Sessions.Active != 1 {
		t.Fatalf("sessions delta = %+v, want opened 1 active 1 (gauge)", d.Sessions)
	}
	if d.Sessions.Latency.Count != 1 || d.Sessions.Latency.Sum != 9 {
		t.Fatalf("latency delta = %+v, want count 1 sum 9", d.Sessions.Latency)
	}
	if len(d.Sessions.Latency.Buckets) != 1 || d.Sessions.Latency.Buckets[0].Count != 1 {
		t.Fatalf("latency buckets = %+v, want one bucket of 1", d.Sessions.Latency.Buckets)
	}
	if d.Faults.SessionRetries != 1 {
		t.Fatalf("fault delta = %+v, want one retry", d.Faults)
	}
	if cur.Delta(nil) != cur {
		t.Fatal("Delta(nil) should return the snapshot unchanged")
	}
}

func TestDeltaUnmatchedNames(t *testing.T) {
	prev := New([]string{"work"}, []string{"gen→work"}).Snapshot()
	m := New([]string{"work.1", "work.2"}, []string{"gen→work.1"})
	m.Node(0).Firings.Add(4)
	d := m.Snapshot().Delta(prev)
	// New names delta against zero; vanished names are dropped.
	if n := d.NodeByName("work.1"); n == nil || n.Firings != 4 {
		t.Fatalf("new node delta = %+v, want firings 4", n)
	}
	if d.NodeByName("work") != nil {
		t.Fatal("vanished node should not appear in delta")
	}
}
