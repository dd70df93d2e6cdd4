package fabric

import (
	"testing"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// voqRig builds two senders, one switch, one receiver with the
// input-queued VoQ architecture.
func voqRig(t *testing.T) (*sim.Scheduler, *Network, [3]packet.NodeID) {
	t.Helper()
	g := topo.New()
	sw := g.AddSwitch("sw")
	a := g.AddHost("a")
	b := g.AddHost("b")
	r := g.AddHost("r")
	for _, h := range []packet.NodeID{a, b, r} {
		g.Connect(h, sw, 40*units.Gbps, units.Microsecond)
	}
	s := sim.New()
	cfg := DefaultConfig()
	cfg.Arch = InputQueuedVoQ
	n := New(s, g, cfg)
	n.Route = func(at packet.NodeID, pkt *packet.Packet) *Port { return n.PortToward(at, pkt.Dst) }
	return s, n, [3]packet.NodeID{a, b, r}
}

// voqPkt takes a data packet from n's arena that entered the switch on
// input port in.
func voqPkt(n *Network, src, dst packet.NodeID, size units.ByteSize, seq int32, in int) *packet.Packet {
	p := n.NewPacket()
	p.Src, p.Dst, p.Kind, p.Size, p.Seq, p.InPort = src, dst, packet.Data, size, seq, int32(in)
	return p
}

// Round-robin arbitration interleaves inputs instead of serving strict
// arrival order: with input A's burst enqueued first and input B's
// second, deliveries alternate.
func TestVoQRoundRobinInterleavesInputs(t *testing.T) {
	s, n, hosts := voqRig(t)
	a, b, r := hosts[0], hosts[1], hosts[2]
	var srcs []packet.NodeID
	n.Sink = func(_ packet.NodeID, p *packet.Packet) { srcs = append(srcs, p.Src) }

	// Two line-rate sources into one output: enqueue bursts directly at
	// the egress with distinct input ports.
	sw := n.Topo.ID("sw")
	egress := n.PortToward(sw, r)
	inA := n.PortToward(sw, a).Index
	inB := n.PortToward(sw, b).Index
	s.At(0, func() {
		for i := 0; i < 4; i++ {
			pa := voqPkt(n, a, r, 1000, int32(i), inA)
			egress.Enqueue(pa)
		}
		for i := 0; i < 4; i++ {
			pb := voqPkt(n, b, r, 1000, int32(i), inB)
			egress.Enqueue(pb)
		}
	})
	s.Run()
	if len(srcs) != 8 {
		t.Fatalf("delivered %d, want 8", len(srcs))
	}
	// First packet began serializing on enqueue (input A); afterwards the
	// arbiter alternates between the two VoQs.
	alternations := 0
	for i := 1; i < len(srcs); i++ {
		if srcs[i] != srcs[i-1] {
			alternations++
		}
	}
	if alternations < 5 {
		t.Errorf("deliveries barely interleaved (%d alternations): %v", alternations, srcs)
	}
}

// Per-input FIFO order is preserved inside each VoQ.
func TestVoQPreservesPerInputOrder(t *testing.T) {
	s, n, hosts := voqRig(t)
	a, _, r := hosts[0], hosts[1], hosts[2]
	var seqs []int32
	n.Sink = func(_ packet.NodeID, p *packet.Packet) {
		if p.Src == a {
			seqs = append(seqs, p.Seq)
		}
	}
	sw := n.Topo.ID("sw")
	egress := n.PortToward(sw, r)
	inA := n.PortToward(sw, a).Index
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			egress.Enqueue(voqPkt(n, a, r, 1000, int32(i), inA))
		}
	})
	s.Run()
	for i, v := range seqs {
		if v != int32(i) {
			t.Fatalf("per-input order violated: %v", seqs)
		}
	}
}

// Aggregate queue accounting covers all VoQs of the output.
func TestVoQAggregateQueueBytes(t *testing.T) {
	s, n, hosts := voqRig(t)
	a, b, r := hosts[0], hosts[1], hosts[2]
	n.Sink = func(packet.NodeID, *packet.Packet) {}
	sw := n.Topo.ID("sw")
	egress := n.PortToward(sw, r)
	gate := &testGate{open: false, port: egress}
	egress.AttachGate(gate)
	inA := n.PortToward(sw, a).Index
	inB := n.PortToward(sw, b).Index
	s.At(0, func() {
		egress.Enqueue(voqPkt(n, a, r, 1000, 0, inA))
		egress.Enqueue(voqPkt(n, b, r, 500, 0, inB))
	})
	s.At(10*units.Microsecond, func() {
		if got := egress.TotalQueueBytes(); got != 1500 {
			t.Errorf("aggregate queue = %v, want 1500", got)
		}
		gate.open = true
		egress.GateChanged()
	})
	s.Run()
	if egress.TotalQueueBytes() != 0 {
		t.Error("VoQs not drained")
	}
}

// End-to-end through hosts: the VoQ fabric delivers everything exactly
// once (conservation) under an incast.
func TestVoQConservation(t *testing.T) {
	s, n, hosts := voqRig(t)
	a, b, r := hosts[0], hosts[1], hosts[2]
	got := map[packet.NodeID]int{}
	n.Sink = func(_ packet.NodeID, p *packet.Packet) { got[p.Src]++ }
	mkSrc := func(h packet.NodeID, count int) *listSource {
		src := &listSource{}
		for i := 0; i < count; i++ {
			src.pkts = append(src.pkts, mkPkt(n, h, r, 1000))
			src.at = append(src.at, 0)
		}
		return src
	}
	n.HostPort(a).AttachSource(mkSrc(a, 50))
	n.HostPort(b).AttachSource(mkSrc(b, 50))
	s.At(0, func() { n.HostPort(a).Kick(); n.HostPort(b).Kick() })
	s.Run()
	if got[a] != 50 || got[b] != 50 {
		t.Errorf("delivered a=%d b=%d, want 50 each", got[a], got[b])
	}
}

// A cyclic buffer dependency deadlocks a lossless fabric; the watchdog
// must call it out rather than letting the run end silently.
func TestStrandedDetectsDeadlock(t *testing.T) {
	// Two switches forwarding to each other with a gate that never opens:
	// queued traffic can never drain.
	g := topo.New()
	a := g.AddHost("a")
	s1 := g.AddSwitch("s1")
	s2 := g.AddSwitch("s2")
	b := g.AddHost("b")
	g.Connect(a, s1, units.Gbps, 0)
	g.Connect(s1, s2, units.Gbps, 0)
	g.Connect(b, s2, units.Gbps, 0)
	s := sim.New()
	n := New(s, g, DefaultConfig())
	n.Route = func(at packet.NodeID, pkt *packet.Packet) *Port {
		if at == s1 {
			return n.PortToward(s1, s2)
		}
		return n.PortToward(at, pkt.Dst)
	}
	n.Sink = func(packet.NodeID, *packet.Packet) {}
	egress := n.PortToward(s1, s2)
	egress.AttachGate(&testGate{open: false, port: egress})
	src := &listSource{at: []units.Time{0, 0}, pkts: []*packet.Packet{mkPkt(n, a, b, 1000), mkPkt(n, a, b, 1000)}}
	n.HostPort(a).AttachSource(src)
	s.At(0, func() { n.HostPort(a).Kick() })
	s.Run()
	rep := n.Stranded()
	if !rep.Deadlocked() {
		t.Fatalf("deadlock not detected: %+v", rep)
	}
	if rep.Bytes != 2000 {
		t.Errorf("stranded bytes = %v, want 2000", rep.Bytes)
	}
}

// A clean run strands nothing.
func TestStrandedCleanRun(t *testing.T) {
	s, n, hosts := voqRig(t)
	a, _, r := hosts[0], hosts[1], hosts[2]
	n.Sink = func(packet.NodeID, *packet.Packet) {}
	src := &listSource{at: []units.Time{0}, pkts: []*packet.Packet{mkPkt(n, a, r, 1000)}}
	n.HostPort(a).AttachSource(src)
	s.At(0, func() { n.HostPort(a).Kick() })
	s.Run()
	rep := n.Stranded()
	if len(rep.Ports) != 0 || rep.Bytes != 0 || rep.Deadlocked() {
		t.Errorf("clean run reported stranded traffic: %+v", rep)
	}
}
