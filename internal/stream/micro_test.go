package stream

// Layer microbenchmarks for the pieces a message crosses between two
// kernels: a local edge's ring (publish to consumed count), the mailbox that kicks and wakes take (drained in batches, and
// one hop between two parked loops), the two
// rims' handoffs between a pump and its node, and one
// pass of the firing loop — a batch-1 all-data firing, a 64-firing pass
// over runs that mix data and dummies (staggered across a join's inputs,
// or aligned so the dummies form stretches), and a time-aware node's
// ingest of a 64-head run — and the layer above them, one short session.
// Every benchmark's ns/op and allocs/op are per message, except the
// session's, which are per session.
//
//	go test -run '^$' -bench 'RingHop|Mailbox|Handoff|Fire|MixedRun|AlignedDummy|TimedIngest|SessionCycle' -benchmem ./internal/stream

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"streamdag/internal/clock"
	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/ival"
	"streamdag/internal/proto"
	"streamdag/internal/workload"
)

// benchRingHop times a local edge's transport for runs of n messages,
// per message: the producer publishes the run to the edge's ring and
// kicks the consumer; the consumer takes the kick from its mailbox,
// drains the ring (loads its tail and then the ring), takes the run in
// place and stores its consumed count; the producer reloads its window from that count.  Both
// ends are nodes of a built-and-closed engine with a session started on
// them by hand, driven from one goroutine.
func benchRingHop(b *testing.B, n int) {
	prod, cons, pns, cns := ringRig(b)
	cons.mb.closed = false
	run := make([]Message, n)
	var spare []event
	var now int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		for j := range run {
			run[j] = Message{Seq: uint64(i + j), Kind: Data}
		}
		prod.send(pns, 0, run, n, 0, &now)
		kicks, _ := cons.mb.takeAll(spare)
		for j := range kicks {
			cons.absorb(&kicks[j])
		}
		spare = reuse(kicks)
		cns.dirty, cons.dirty = false, cons.dirty[:0]
		cons.popHeads(cns, 0, n)
		cons.flushCredits(cns)
		prod.reload(pns, 0)
	}
	b.StopTimer()
	if q := cons.inEdge(cns, 0).queued(); pns.inflight[0] != 0 || q != 0 {
		b.Fatalf("%d in flight and %d queued after the last hop", pns.inflight[0], q)
	}
}

func BenchmarkRingHopB1(b *testing.B)  { benchRingHop(b, 1) }
func BenchmarkRingHopB64(b *testing.B) { benchRingHop(b, 64) }

// ringRig is a local edge of 256 slots between the first two nodes of a
// built-and-closed engine, with a session started on both by hand.
func ringRig(tb testing.TB) (prod, cons *engineNode, pns, cns *nodeSession) {
	e, err := NewEngine(workload.Pipeline(3, 256), nil, Config{WatchdogTimeout: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	e.Close()
	prod, cons = e.nodes[0], e.nodes[1]
	ses := &EngineSession{id: 1, e: e}
	e.takeBufs(ses)
	return prod, cons, startOn(prod, ses), startOn(cons, ses)
}

// TestRingGrowthKeepsConsumerView holds a consumer's view of a local
// edge's ring — messages it drained and has yet to take, and messages
// published since that it has yet to drain — while the producer grows the
// ring from minRing past 128 slots and wraps it at every size.  Every
// message the consumer has yet to take must read as the one sent, from
// the ring it drained last before a drain and from the grown one after: a
// drain that kept an older ring, or a growth that copied one live message
// too few, reads a slot the producer never wrote there.
func TestRingGrowthKeepsConsumerView(t *testing.T) {
	prod, cons, pns, cns := ringRig(t)
	c := cons.inEdge(cns, 0)
	check := func(step int, when string) {
		t.Helper()
		for k := 0; k < c.queued(); k++ {
			if got, want := c.at(k).Seq, uint64(c.head)+uint64(k)+1; got != want {
				t.Fatalf("step %d, %s: message %d of the %d yet to take reads seq %d, want %d (ring of %d slots)",
					step, when, k, c.queued(), got, want, len(c.slots))
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	// Runs of at most minRing, so that only held messages grow the ring;
	// message k carries seq k+1, so that an unwritten slot reads 0.
	run := make([]Message, minRing)
	var seq uint64
	var now int64
	grewHolding, wraps := 0, 0
	for step := 0; step < 600; step++ {
		prod.reload(pns, 0)
		m := min(1+rng.Intn(len(run)), prod.room(pns, 0))
		for j := range run[:m] {
			seq++
			run[j] = Message{Seq: seq, Kind: Data}
		}
		before, held := c.ring.Load(), c.sent.Load() > c.head
		prod.send(pns, 0, run[:m], m, 0, &now)
		if c.ring.Load() != before && held {
			grewHolding++
		}
		check(step, "before the drain")
		if rng.Intn(2) == 0 {
			cons.drain(cns)
			check(step, "after the drain")
		}
		// Take fewer than were sent until the window is full, then as many.
		take := rng.Intn(c.queued() + 1)
		if step < 200 {
			take = min(take, rng.Intn(3))
		}
		if h := int(c.head) & (len(c.slots) - 1); len(c.slots) > 0 && h+take > len(c.slots) {
			wraps++
		}
		cons.popHeads(cns, 0, take)
		cons.flushCredits(cns)
		check(step, "after taking")
	}
	n := len(*c.ring.Load())
	t.Logf("the ring grew %d times while the consumer held messages, to %d slots; the consumer took across its end %d times", grewHolding, n, wraps)
	if grewHolding < 5 || n < 256 || wraps == 0 {
		t.Errorf("the ring grew %d times while the consumer held messages, to %d slots, and the consumer took across its end %d times; want 5, 256 and more than 0",
			grewHolding, n, wraps)
	}
}

// TestLineSliceFillsWholeLines pins what keeps one node's firing scratch
// off another's cache lines: every array lineSlice makes is a whole
// number of lines long and starts on a line boundary — or, past 512 bytes
// of pointerful elements, 8 bytes after one, behind the allocator's type
// header in a slot that is itself a multiple of 64 bytes long.
func TestLineSliceFillsWholeLines(t *testing.T) {
	check := func(name string, v reflect.Value, size int) {
		t.Helper()
		p, n := v.Pointer(), v.Cap()*size
		header := n > 512 && v.Type().Elem().Kind() != reflect.Bool && v.Type().Elem().Kind() != reflect.Int
		if n%64 != 0 || p%64 != 0 && !(header && p%64 == 8) {
			t.Errorf("%s: array at %#x, %d bytes; want a whole number of lines from a line boundary", name, p, n)
		}
	}
	for _, n := range []int{1, 2, 3, 7, 64} {
		check(fmt.Sprintf("[]bool(%d)", n), reflect.ValueOf(lineSlice[bool](n)), 1)
		check(fmt.Sprintf("[]int(%d)", n), reflect.ValueOf(lineSlice[int](n)), 8)
		check(fmt.Sprintf("[]any(%d)", n), reflect.ValueOf(lineSlice[any](n)), 16)
		check(fmt.Sprintf("[][]Message(%d)", n), reflect.ValueOf(lineSlice[[]Message](n)), 24)
		check(fmt.Sprintf("[]Message(%d)", n), reflect.ValueOf(lineSlice[Message](n)), 32)
	}
}

// TestNodeScratchOwnsItsLines checks what NewEngine's per-engine arrays
// must keep from one allocation per array: no cache line holds firing
// scratch of two nodes.  The graph mixes fan-outs, fan-ins and a sink
// with span kernels at two batch widths, one short enough for every array
// to share chunks and one long enough for the span arrays to take their
// own.
func TestNodeScratchOwnsItsLines(t *testing.T) {
	g, err := graph.ParseString("a b 4\na c 4\na d 4\nb e 4\nc e 4\nd e 4\ne f 4\nf g 4")
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{3, 64} {
		e, err := NewEngine(g, nil, Config{MaxBatch: batch})
		if err != nil {
			t.Fatal(err)
		}
		owner := map[uintptr]graph.NodeID{}
		claim := func(n *engineNode, name string, v reflect.Value) {
			if v.Cap() == 0 {
				return
			}
			p := v.Pointer()
			end := p + uintptr(v.Cap())*v.Type().Elem().Size()
			for line := p / 64; line <= (end-1)/64; line++ {
				if o, ok := owner[line]; ok && o != n.id {
					t.Errorf("batch %d: node %d's %s shares line %#x with node %d", batch, n.id, name, line*64, o)
				}
				owner[line] = n.id
			}
		}
		for _, n := range e.nodes {
			for name, s := range map[string]any{
				"cur": n.cur, "kin": n.kin, "kout": n.kout,
				"present": n.present, "acc": n.acc, "accDummy": n.accDummy,
				"spanIn": n.spanIn, "spanOut": n.spanOut, "spanSeq": n.spanSeq,
			} {
				claim(n, name, reflect.ValueOf(s))
			}
			for i, run := range n.acc {
				claim(n, fmt.Sprintf("acc[%d]", i), reflect.ValueOf(run))
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEdgeCountsLayout pins edgeCounts at two whole lines, the consumer's
// half (consumed, taken, head, slots, stalled, parked) on the second: an
// edge's consumer then never writes the line its producer's sent, counts
// and ring pointer sit on, in edges[] as alone.
func TestEdgeCountsLayout(t *testing.T) {
	typ := reflect.TypeFor[edgeCounts]()
	if n := typ.Size(); n != 128 {
		t.Errorf("edgeCounts is %d bytes, want 128", n)
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Name {
		case "sent", "data", "dummies", "ring", "eof":
			if end := f.Offset + f.Type.Size(); end > 64 {
				t.Errorf("producer's %s ends at offset %d, past the first line", f.Name, end)
			}
		case "consumed", "taken", "head", "slots", "stalled", "parked":
			if f.Offset < 64 {
				t.Errorf("consumer's %s at offset %d, want the second line", f.Name, f.Offset)
			}
		}
	}
	if f, _ := typ.FieldByName("consumed"); f.Offset != 64 {
		t.Errorf("consumed at offset %d, want 64", f.Offset)
	}
}

// reuse empties a batch a node loop took, for its next takeAll.
func reuse(b []event) []event {
	clear(b)
	return b[:0]
}

func newMailbox() *mailbox { return &mailbox{wake: make(chan struct{}, 1)} }

// BenchmarkMailboxPostTake posts one kick per op and drains them in
// batches of 16, the two batches ping-ponging as in engineNode.run.
func BenchmarkMailboxPostTake(b *testing.B) {
	mb := newMailbox()
	var spare []event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb.post(event{kind: evKick})
		if i%16 == 15 {
			spare, _ = mb.takeAll(spare)
			spare = reuse(spare)
		}
	}
}

// BenchmarkMailboxPostTakeParked is the mailbox hop between two node loops
// at batch 1: two goroutines pass one event back and forth through two
// mailboxes, so every post finds its consumer parked and wakes it.  Per op
// is one hop.
func BenchmarkMailboxPostTakeParked(b *testing.B) {
	ping, pong := newMailbox(), newMailbox()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		var spare []event
		for {
			b, ok := ping.takeAll(spare)
			if !ok {
				return
			}
			for range b {
				pong.post(event{kind: evKick})
			}
			spare = reuse(b)
		}
	}()
	var spare []event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 2 {
		ping.post(event{kind: evKick})
		spare, _ = pong.takeAll(spare)
		spare = reuse(spare)
	}
	b.StopTimer()
	ping.close()
	<-echoed
}

// BenchmarkSinkHandoff is the sink rim at batch 1: per op, the sink node
// writes one emission into the session's sink ring and publishes it, and
// the pump delivers
// it to a no-op Sink and stores its count.  On a full window the benchmark
// stalls as the sink node does (park) and takes the pump's wake from the
// node's mailbox.
func BenchmarkSinkHandoff(b *testing.B) {
	r := newSinkRig(b, nil)
	c, w := r.ses.emit, int64(r.ses.e.rimWin)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c.occupancy() >= w && !c.stall(w) {
			r.wakes()
		}
		r.ses.emitAt(0, uint64(i), nil)
		r.ses.publish(1)
	}
	b.StopTimer()
	r.stop()
}

// BenchmarkIngestHandoff is the ingest rim at batch 1: per op, the pump
// takes one payload from a Source, publishes it to the session's ingest
// ring and kicks the source node.  The benchmark is the source node: it
// takes the kick, loads the tail, fires what it loaded in place (clears
// its slots, with no kernel and no send) and stores its count, which
// wakes the pump if it stalled on the full window.
func BenchmarkIngestHandoff(b *testing.B) {
	e, err := NewEngine(workload.Pipeline(3, 4), nil, Config{WatchdogTimeout: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	e.Close()
	src := e.source
	src.mb.closed = false
	left, one := b.N, any(1)
	source := func(context.Context) (any, bool, error) {
		if left == 0 {
			return nil, false, nil
		}
		left--
		return one, true, nil
	}
	ses := &EngineSession{id: 1, e: e, ctx: context.Background(), source: source}
	e.takeBufs(ses)
	ns := startOn(src, ses)
	pumped := make(chan struct{})
	var spare []event
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		defer close(pumped)
		ses.ingestPump(src)
	}()
	for !ns.srcDone || ses.ingest.taken != int64(ns.nextSeq) {
		kicks, _ := src.mb.takeAll(spare)
		for j := range kicks {
			src.absorb(&kicks[j])
		}
		spare = reuse(kicks)
		ns.dirty, src.dirty = false, src.dirty[:0]
		for ns.ingestSegment() {
			clear(ns.q)
			ns.nextSeq += uint64(len(ns.q))
		}
		src.flushCredits(ns)
	}
	b.StopTimer()
	<-pumped
}

// TestSinkRingWakesParkedPump hands the sink pump one emission at a time.
// The Sink records each one and spins a random while before it returns;
// the test spins a random while after it sees the record, then publishes
// the next, so the publish lands all over the pump's way from the Sink
// back to parking on the empty ring.  One lost between the pump's last
// look at the tail and its raising the parked flag is never delivered.
func TestSinkRingWakesParkedPump(t *testing.T) {
	var emitted atomic.Int64
	emitted.Store(-1)
	pumpRng := rand.New(rand.NewSource(2))
	r := newSinkRig(t, func(_ context.Context, seq uint64, _ any) error {
		emitted.Store(int64(seq))
		spin(pumpRng.Intn(256))
		return nil
	})
	defer r.stop()
	rng := rand.New(rand.NewSource(1))
	for i := int64(0); i < 5000; i++ {
		r.ses.emitAt(0, uint64(i), nil)
		r.ses.publish(1)
		for deadline := time.Now().Add(5 * time.Second); emitted.Load() != i; {
			if time.Now().After(deadline) {
				t.Fatalf("emission %d was never delivered: the pump slept through its publish", i)
			}
		}
		spin(rng.Intn(64))
	}
}

var spun atomic.Int64

// spin busy-waits n steps of a few nanoseconds each.
func spin(n int) {
	for ; n > 0; n-- {
		spun.Add(1)
	}
}

// sinkRig is a session's sink pump running against the sink node of a
// built-and-closed engine, whose mailbox the caller drains for the wakes.
type sinkRig struct {
	ses    *EngineSession
	sink   *engineNode
	spare  []event
	pumped chan struct{}
}

// newSinkRig runs the pump with sink, or a no-op Sink when it is nil.
func newSinkRig(tb testing.TB, sink SinkFunc) *sinkRig {
	e, err := NewEngine(workload.Pipeline(3, 4), nil, Config{WatchdogTimeout: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	e.Close()
	r := &sinkRig{sink: e.sink, pumped: make(chan struct{})}
	r.sink.mb.closed = false
	ctx, cancel := context.WithCancelCause(context.Background())
	if sink == nil {
		sink = func(context.Context, uint64, any) error { return nil }
	}
	r.ses = &EngineSession{id: 1, e: e, ctx: ctx, cancel: cancel, sink: sink}
	e.takeBufs(r.ses)
	go func() {
		defer close(r.pumped)
		r.ses.sinkPump(r.sink)
	}()
	return r
}

// wakes takes the next batch of the pump's wakes, kicks that lower the
// sink node's kick flag as its loop would, so the next wake posts again.
func (r *sinkRig) wakes() {
	b, _ := r.sink.mb.takeAll(r.spare)
	for j := range b {
		r.sink.absorb(&b[j])
	}
	r.ses.states[r.sink.id].dirty, r.sink.dirty = false, r.sink.dirty[:0]
	r.spare = reuse(b)
}

func (r *sinkRig) stop() {
	r.ses.end(nil, nil)
	<-r.pumped
}

// firingBench is one node of a built-and-closed engine with one session
// started on it by hand: the benchmark's goroutine is the only one touching
// the node, so what it times is the firing loop's own cost.  The mailboxes
// of the node's consumers are reopened, and the benchmark takes what the
// node sent the way a receiving node would (recycle): its out-edge rings
// are drained and their kicks taken, so sends cost a real publish and
// kick, and the mailboxes reuse their storage.
type firingBench struct {
	n     *engineNode
	ns    *nodeSession
	spare []event
}

func newFiringBench(b testing.TB, g *graph.Graph, node graph.NodeID, ks map[graph.NodeID]Kernel, cfg Config) *firingBench {
	cfg.WatchdogTimeout = time.Hour
	e, err := NewEngine(g, ks, cfg)
	if err != nil {
		b.Fatal(err)
	}
	e.Close()
	n := e.nodes[node]
	for _, down := range n.downNode {
		down.mb.closed = false
	}
	ses := &EngineSession{id: 1, e: e}
	e.takeBufs(ses)
	return &firingBench{n: n, ns: startOn(n, ses)}
}

// startOn starts node n's state for ses as the session's first event there
// does — here a kick that finds nothing to drain — and takes it off the
// node's advance list.
func startOn(n *engineNode, ses *EngineSession) *nodeSession {
	n.absorb(&event{kind: evKick, ses: ses})
	ns := &ses.states[n.id]
	ns.dirty, n.dirty = false, n.dirty[:0]
	return ns
}

// pushIn publishes msgs on node n's in-edge i as one run, as its producer
// would once it saw the messages the node took counted as consumed, and
// drains the node's in-edges, as a kick would.
func pushIn(n *engineNode, ns *nodeSession, i int, msgs ...Message) {
	c := n.inEdge(ns, i)
	c.consumed.Store(c.head)
	t := c.sent.Load()
	live := int(t - c.head)
	slots := c.grow(t, live, live+len(msgs))
	for j, m := range msgs {
		slots[(int(t)+j)&(len(slots)-1)] = m
	}
	c.sent.Store(t + int64(len(msgs)))
	n.drain(ns)
}

// recycle takes what the node sent, as the receivers would, and counts
// it all consumed, which an undrained downstream never does.
func (f *firingBench) recycle() (msgs int) {
	ses := f.ns.ses
	for i, down := range f.n.downNode {
		c := &ses.edges[f.n.out[i]]
		t := c.sent.Load()
		msgs += int(t - c.taken)
		c.taken, c.head = t, t
		c.consumed.Store(t)
		f.ns.inflight[i] = 0
		ses.kicks[down.id].raised.Store(false)
		if len(down.mb.q) > 0 { // else takeAll would wait
			b, _ := down.mb.takeAll(f.spare)
			f.spare = reuse(b)
		}
	}
	return msgs
}

// benchFireOnce times one batch-1 firing of a single-input node — a
// one-message publish and drain, one pass, send — with the given kernel.
func benchFireOnce(b *testing.B, k Kernel) {
	g := workload.Pipeline(3, 4)
	mid := g.MustNode("s1")
	f := newFiringBench(b, g, mid, map[graph.NodeID]Kernel{mid: k}, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pushIn(f.n, f.ns, 0, Message{Seq: uint64(i), Kind: Data, Payload: i & 0xff})
		if !f.n.fireRun(f.ns) {
			b.Fatal("aligned head did not fire")
		}
		f.recycle()
	}
}

// The same kernel through its two doors: Passthrough is a SpanKernel
// (span of length one on node scratch); wrapped in a KernelFunc only its
// Process is visible (an output map per firing, adapted at NewEngine).
func BenchmarkFireOnceSpanKernel(b *testing.B) { benchFireOnce(b, Passthrough(1)) }
func BenchmarkFireOnceMapKernel(b *testing.B) {
	benchFireOnce(b, KernelFunc(Passthrough(1).Process))
}

// flipKernel maps each int payload to its low bit flipped, in both forms:
// small ints box without allocating, so a pass measures the engine.
type flipKernel struct{}

func (flipKernel) Process(seq uint64, in []Input) map[int]any {
	return map[int]any{0: in[0].Payload.(int) ^ 1}
}

func (flipKernel) ProcessSpan(_ uint64, in, out []any) int {
	for j, p := range in {
		out[j] = p.(int) ^ 1
	}
	return len(in)
}

// benchSpanPass times one pass of 64 data firings at a one-in-edge node
// whose kernel maps each element (flipKernel): the stretch's staging, the
// kernel calls — one per element at batch 1, one per pass at 64 — the
// protocol update, the run's copy and its send, per message.
func benchSpanPass(b *testing.B, batch int) {
	const run = 64
	g := workload.Pipeline(3, run)
	mid := g.MustNode("s1")
	f := newFiringBench(b, g, mid, map[graph.NodeID]Kernel{mid: flipKernel{}}, Config{MaxBatch: batch})
	msgs := make([]Message, run)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += run {
		for j := range msgs {
			msgs[j] = Message{Seq: uint64(i + j), Kind: Data, Payload: j}
		}
		pushIn(f.n, f.ns, 0, msgs...)
		if !f.n.fireRun(f.ns) || f.n.inEdge(f.ns, 0).queued() != 0 {
			b.Fatal("a run of 64 data heads did not fire in one pass")
		}
		f.recycle()
	}
}

func BenchmarkSpanPassB1(b *testing.B)  { benchSpanPass(b, 1) }
func BenchmarkSpanPassB64(b *testing.B) { benchSpanPass(b, 64) }

// TestSpanScratchWidensForALongStretch pins when a node's span scratch
// grows from a batch to a pass: at a pass that finds more than a batch
// queued besides an EOS, before the stretch is staged.  A batch of data
// and an EOS (a session shorter than a batch) leaves it as NewEngine cut
// it; one more data message is a stretch longer than a batch, taken in
// one pass.
func TestSpanScratchWidensForALongStretch(t *testing.T) {
	for _, batch := range []int{1, 3} {
		for _, eos := range []bool{true, false} {
			g := workload.Pipeline(3, 64)
			mid := g.MustNode("s1")
			f := newFiringBench(t, g, mid, map[graph.NodeID]Kernel{mid: flipKernel{}}, Config{MaxBatch: batch})
			msgs := make([]Message, batch+1)
			for j := range msgs {
				msgs[j] = Message{Seq: uint64(j), Kind: Data, Payload: j}
			}
			if eos {
				msgs[batch] = Message{Seq: proto.EOSSeq, Kind: EOS}
			}
			pushIn(f.n, f.ns, 0, msgs...)
			if !f.n.fireRun(f.ns) {
				t.Fatalf("batch %d: queued data did not fire", batch)
			}
			want, data := f.n.pass, batch+1
			if eos {
				want, data = batch, batch // the EOS is a pass of its own
			}
			if got := len(f.n.spanIn); got != want || len(f.n.spanOut) != want || len(f.n.spanSeq) != want {
				t.Errorf("batch %d, EOS %v: span scratch %d/%d/%d long, want %d",
					batch, eos, got, len(f.n.spanOut), len(f.n.spanSeq), want)
			}
			if sent := f.recycle(); sent != data {
				t.Errorf("batch %d, EOS %v: %d messages sent, want %d", batch, eos, sent, data)
			}
		}
	}
}

// joinRig is a node with the given in-degree whose one out-edge has
// capacity outBuf, every in-edge 64 deep, on the firing rig under alg
// with every dummy interval 1, at the given batch width.
func joinRig(tb testing.TB, inputs, outBuf, batch int, alg cs4.Algorithm) *firingBench {
	g := graph.New()
	src, join, out := g.AddNode("src"), g.AddNode("join"), g.AddNode("out")
	for i := 0; i < inputs; i++ {
		w := g.AddNode(fmt.Sprintf("w%d", i))
		g.AddEdge(src, w, 64)
		g.AddEdge(w, join, 64)
	}
	g.AddEdge(join, out, outBuf)
	iv := make(map[graph.EdgeID]ival.Interval, g.NumEdges())
	for _, e := range g.Edges() {
		iv[e.ID] = ival.FromInt(1)
	}
	return newFiringBench(tb, g, join, nil, Config{Algorithm: alg, Intervals: iv, MaxBatch: batch})
}

// TestDummyStretchStopsAtItsWindow pins the window bound of a stretch of
// dummy-only firings under Propagation, and of the per-firing path that
// takes them under Non-propagation (every interval 1, so each firing
// sends its dummy either way): a node whose out-window is 2, fed
// 64 aligned dummies per in-edge, takes one pass that ships exactly the
// window, parks the third firing's dummy and consumes three heads per
// in-edge — what firing per message does.  A stretch that took all 64
// would consume the run ahead of the full window, an effective buffer the
// intervals were not computed against.  A batch-1 node's pass is
// passWidth firings wide, so it must stop at the window the same way.
func TestDummyStretchStopsAtItsWindow(t *testing.T) {
	for _, batch := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) { dummyStretchStopsAtItsWindow(t, batch) })
	}
}

func dummyStretchStopsAtItsWindow(t *testing.T, batch int) {
	const window, run = 2, 64
	for _, alg := range []cs4.Algorithm{cs4.Propagation, cs4.NonPropagation} {
		for _, inputs := range []int{1, 2} {
			f := joinRig(t, inputs, window, batch, alg)
			dummies := make([]Message, run)
			for j := range dummies {
				dummies[j] = Message{Seq: 10 + 3*uint64(j), Kind: Dummy}
			}
			for in := 0; in < inputs; in++ {
				pushIn(f.n, f.ns, in, dummies...)
			}
			if !f.n.fireRun(f.ns) {
				t.Fatalf("%v, %d in: aligned dummies did not fire", alg, inputs)
			}
			for in := 0; in < inputs; in++ {
				if left := f.n.inEdge(f.ns, in).queued(); left != run-window-1 {
					t.Errorf("%v, %d in: in-edge %d has %d heads left, want %d", alg, inputs, in, left, run-window-1)
				}
			}
			if f.ns.inflight[0] != window || f.ns.pendingN != 1 ||
				f.ns.pendingMsg[0] != (Message{Seq: 10 + 3*window, Kind: Dummy}) {
				t.Errorf("%v, %d in: shipped %d, parked %d (%+v); want the window of %d shipped and the dummy at %d parked",
					alg, inputs, f.ns.inflight[0], f.ns.pendingN, f.ns.pendingMsg[0], window, 10+3*window)
			}
			if sent := f.recycle(); sent != window {
				t.Errorf("%v, %d in: %d messages posted downstream, want %d", alg, inputs, sent, window)
			}
		}
	}
}

// benchMixedRunHop times a node with the given in-degree and one out-edge
// consuming runs of 64 aligned sequence numbers per in-edge, one message in
// ten data and the rest dummies, under the Propagation protocol: one pass
// of 64 firings, most of them dummy-only (no kernel call, a cascade dummy
// out), shipped as one mixed run.  In-edge i carries its data stagger × i
// sequence numbers later than in-edge 0, so a stagger of 0 puts every
// input's data at the same firings and leaves the rest stretches of
// aligned dummies.  Per edge message means per message consumed or sent.
func benchMixedRunHop(b *testing.B, inputs, stagger int) {
	f := joinRig(b, inputs, 64, 64, cs4.Propagation)
	const run = 64
	msgs := make([]Message, run)
	edgeMsgs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += edgeMsgs {
		base := uint64(i) * run
		for in := 0; in < inputs; in++ {
			for j := range msgs {
				m := Message{Seq: base + uint64(j), Kind: Dummy}
				if (j+stagger*in)%10 == 0 {
					m.Kind, m.Payload = Data, j
				}
				msgs[j] = m
			}
			pushIn(f.n, f.ns, in, msgs...)
		}
		if !f.n.fireRun(f.ns) || f.n.inEdge(f.ns, 0).queued() != 0 {
			b.Fatal("a run of aligned heads did not fire in one pass")
		}
		edgeMsgs = run*inputs + f.recycle()
	}
}

func BenchmarkMixedRunHop1In(b *testing.B)     { benchMixedRunHop(b, 1, 3) }
func BenchmarkMixedRunHop4In(b *testing.B)     { benchMixedRunHop(b, 4, 3) }
func BenchmarkAlignedDummyHop4In(b *testing.B) { benchMixedRunHop(b, 4, 0) }

// BenchmarkTimedIngestRun times a time-aware node's advance over a run of
// 64 queued heads — all data, or every other one a dummy, which cuts the
// run into 32 one-element stretches — into a kernel that only counts: the
// clock reading, the staging, the Ingest calls, the batched credit and the
// timer re-arm, per head consumed.
func BenchmarkTimedIngestRun(b *testing.B) {
	for _, tc := range []struct {
		name    string
		dummies bool
	}{{"data", false}, {"half_dummies", true}} {
		b.Run(tc.name, func(b *testing.B) {
			f := newTimedBench(b, &stubTimed{clk: clock.NewFake()}, 64)
			const run = 64
			msgs := make([]Message, run)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += run {
				for j := range msgs {
					m := Message{Seq: uint64(i + j), Kind: Data, Payload: j}
					if tc.dummies && j%2 == 1 {
						m = Message{Seq: m.Seq, Kind: Dummy}
					}
					msgs[j] = m
				}
				pushIn(f.n, f.ns, 0, msgs...)
				f.n.advance(f.ns)
				if f.n.inEdge(f.ns, 0).queued() != 0 {
					b.Fatal("a run of queued heads was not consumed in one advance")
				}
			}
		})
	}
}

// BenchmarkSessionCycle times one short session on a resident engine: Open
// → Wait of 64 messages through a source, three passthrough stages and a
// sink at batch 1, with a sink pump — the session's set-up, its messages
// and its teardown, per op.
func BenchmarkSessionCycle(b *testing.B) {
	e, err := NewEngine(workload.Pipeline(5, 256), nil, Config{WatchdogTimeout: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	sink := func(context.Context, uint64, any) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ses, err := e.Open(SessionConfig{ID: proto.SessionID(i + 1), Source: SyntheticSource(64), Sink: sink})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ses.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
