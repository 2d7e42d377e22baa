package dist

import (
	"sync"
	"sync/atomic"

	"streamdag/internal/clock"
	"streamdag/internal/proto"
	"streamdag/internal/stream"
)

// This file is the distributed backend's node loop: one goroutine per
// hosted node per session runs the node semantics — align the in-edges on
// the minimum sequence number, fire the kernel, send its data plus the
// protocol engine's dummies, broadcast EOS — blocking on that session's
// ports (sessionPorts, engine.go).

// run executes one node of one session to completion.  A node with no
// in-edges is the source: it pulls payloads from ingest and hands each to
// its kernel as one synthetic present Input (sequence numbers are
// assigned here, in ingestion order).  A node with no out-edges is the
// sink: each data-carrying firing is delivered through sinkEmit.
func (p *sessionPorts) run(kernel stream.Kernel, engine *proto.Engine) {
	nIn, nOut := len(p.in), len(p.out)
	// Time-aware kernels re-sequence their output stream and need the
	// flush timer multiplexed against the receive path; they run on
	// their own loop (the Flow builder guarantees the in-degree-1,
	// interior shape).
	if tk, ok := kernel.(stream.TimedKernel); ok && nIn == 1 && nOut > 0 {
		p.runTimed(tk, engine)
		return
	}
	heads := make([]*stream.Message, nIn)
	seqs := make([]uint64, nIn)
	emitted := make([]bool, nOut)

	if nIn == 0 {
		// Source: ingest payloads until the stream drains, then EOS.
		for seq := uint64(0); ; seq++ {
			payload, ok := p.ingest()
			if !ok {
				break
			}
			in := []stream.Input{{Present: true, Payload: payload}}
			outs := kernel.Process(seq, in)
			if nOut == 0 {
				if !p.sinkEmit(seq, stream.SinkPayload(in, outs)) {
					return
				}
			}
			if !p.deliver(engine, emitted, seq, outs) {
				return
			}
		}
		p.broadcastEOS()
		return
	}

	for {
		// Fill head slots (input alignment).
		for i := range heads {
			if heads[i] != nil {
				continue
			}
			m, ok := p.recv(i)
			if !ok {
				return
			}
			heads[i] = &m
		}
		for i, h := range heads {
			seqs[i] = h.Seq
		}
		minSeq := proto.MinSeq(seqs)
		if minSeq == proto.EOSSeq {
			// All EOS: drain, forward, finish.
			for i := range heads {
				heads[i] = nil
				if !p.consumed(i) {
					return
				}
			}
			p.broadcastEOS()
			return
		}
		inputs := make([]stream.Input, nIn)
		anyData := false
		for i, h := range heads {
			if h.Seq == minSeq {
				if h.Kind == stream.Data {
					inputs[i] = stream.Input{Present: true, Payload: h.Payload}
					anyData = true
				}
				heads[i] = nil
				if !p.consumed(i) {
					return
				}
			}
		}
		var outs map[int]any
		if anyData {
			outs = kernel.Process(minSeq, inputs)
			if nOut == 0 {
				if !p.sinkEmit(minSeq, stream.SinkPayload(inputs, outs)) {
					return
				}
			}
		}
		if !p.deliver(engine, emitted, minSeq, outs) {
			return
		}
	}
}

// deliver sends one firing's messages — data per the kernel's choices
// plus the engine's protocol dummies — concurrently to their ports,
// returning false if aborted.
func (p *sessionPorts) deliver(engine *proto.Engine, emitted []bool, seq uint64, outs map[int]any) bool {
	for i := range emitted {
		_, emitted[i] = outs[i]
	}
	dummy := engine.Fire(seq, emitted)
	msgs := make([]stream.Message, 0, len(emitted))
	targets := make([]int, 0, len(emitted))
	for i := range emitted {
		switch {
		case emitted[i]:
			msgs = append(msgs, stream.Message{Seq: seq, Kind: stream.Data, Payload: outs[i]})
			targets = append(targets, i)
		case dummy[i]:
			msgs = append(msgs, stream.Message{Seq: seq, Kind: stream.Dummy})
			targets = append(targets, i)
		}
	}
	return p.sendAll(targets, msgs)
}

// broadcastEOS sends EOS on every out-edge.
func (p *sessionPorts) broadcastEOS() {
	targets := make([]int, len(p.out))
	msgs := make([]stream.Message, len(p.out))
	for i := range targets {
		targets[i] = i
		msgs[i] = stream.Message{Seq: proto.EOSSeq, Kind: stream.EOS}
	}
	p.sendAll(targets, msgs)
}

// sendAll delivers the firing's messages concurrently and waits for all
// of them (or abort).  Concurrent sends avoid head-of-line blocking
// across channels (DESIGN.md, "Protocol soundness" note 2).
func (p *sessionPorts) sendAll(targets []int, msgs []stream.Message) bool {
	if len(msgs) == 0 {
		return true
	}
	if len(msgs) == 1 {
		return p.send(targets[0], msgs[0])
	}
	var wg sync.WaitGroup
	ok := atomic.Bool{}
	ok.Store(true)
	for j := range msgs {
		wg.Add(1)
		go func(i int, m stream.Message) {
			defer wg.Done()
			if !p.send(i, m) {
				ok.Store(false)
			}
		}(targets[j], msgs[j])
	}
	wg.Wait()
	return ok.Load()
}

// runTimed runs one time-aware node to completion: a single in-edge
// consumed silently (data feeds the kernel, dummies and protocol
// alignment are absorbed), emissions fired in the node's private
// output-sequence space, and a flush timer armed to the kernel's next
// deadline between events.  Armed timers are counted on the session so
// the watchdog does not mistake a quietly open window for a deadlock.
func (p *sessionPorts) runTimed(kernel stream.TimedKernel, engine *proto.Engine) {
	clk := kernel.TimedClock()
	nOut := len(p.out)
	timersArmed := &p.ws.ses.timersArmed

	// The receive pump turns the blocking recv into a channel so the
	// main loop can select it against the flush timer.  done unblocks
	// the pump if the loop exits first (an aborted send).
	type rec struct {
		m  stream.Message
		ok bool
	}
	recvCh := make(chan rec)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			m, ok := p.recv(0)
			select {
			case recvCh <- rec{m, ok}:
			case <-done:
				return
			}
			if !ok {
				return
			}
		}
	}()

	// tickCh carries at most one pending wakeup; the timer callback must
	// never block (it runs on the clock's goroutine).
	tickCh := make(chan struct{}, 1)
	var timer clock.Timer
	armed := false
	disarm := func() {
		if armed {
			armed = false
			timer.Stop()
			timersArmed.Add(-1)
		}
	}
	defer disarm()
	rearm := func() {
		when, ok := kernel.NextDeadline()
		if !ok {
			disarm()
			return
		}
		d := when.Sub(clk.Now())
		if d < 0 {
			d = 0
		}
		if timer == nil {
			timer = clk.AfterFunc(d, func() {
				select {
				case tickCh <- struct{}{}:
				default:
				}
			})
		} else {
			timer.Reset(d)
		}
		if !armed {
			armed = true
			timersArmed.Add(+1)
		}
	}

	outSeq := uint64(0)
	emitted := make([]bool, nOut)
	for i := range emitted {
		emitted[i] = true
	}
	// drain fires one output firing per queued emission, broadcast on
	// every out-edge with the all-emitted mask (never a dummy).
	drain := func() bool {
		for _, e := range kernel.TakeEmissions() {
			engine.Fire(outSeq, emitted)
			msgs := make([]stream.Message, nOut)
			targets := make([]int, nOut)
			for i := 0; i < nOut; i++ {
				targets[i] = i
				msgs[i] = stream.Message{Seq: outSeq, Kind: stream.Data, Payload: e}
			}
			if !p.sendAll(targets, msgs) {
				return false
			}
			outSeq++
		}
		return true
	}

	for {
		select {
		case r := <-recvCh:
			if !r.ok {
				return
			}
			if r.m.Seq == proto.EOSSeq {
				if !p.consumed(0) {
					return
				}
				disarm()
				kernel.Flush()
				if !drain() {
					return
				}
				p.broadcastEOS()
				return
			}
			if r.m.Kind == stream.Data {
				kernel.Process(r.m.Seq, []stream.Input{{Present: true, Payload: r.m.Payload}})
			}
			if !p.consumed(0) {
				return
			}
			if !drain() {
				return
			}
			rearm()
		case <-tickCh:
			kernel.Tick(clk.Now())
			if !drain() {
				return
			}
			rearm()
		}
	}
}
