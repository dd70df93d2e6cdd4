// Package packet defines the unit of data moved by the fabric: packets,
// their kinds (data, acknowledgement, congestion notification), and the
// TCD congestion code points from Table 1 of the paper.
package packet

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/units"
)

// CodePoint is the 2-bit ternary congestion notification field carried by
// every TCD-capable packet (Table 1 of the paper). It generalizes the ECN
// field: switches upgrade the code point as the packet traverses ports in
// undetermined or congestion states.
type CodePoint uint8

const (
	// NotCapable marks transports that do not understand TCD (code 00).
	NotCapable CodePoint = 0
	// Capable marks a TCD-capable transport with no event yet (code 01).
	Capable CodePoint = 1
	// UE — Undetermined Encountered (code 10): the packet passed through
	// at least one port in the undetermined state and no congestion port.
	UE CodePoint = 2
	// CE — Congestion Encountered (code 11): the packet passed through a
	// port in the congestion state. CE is sticky: UE never downgrades it.
	CE CodePoint = 3
)

// String renders the code point as in Table 1.
func (c CodePoint) String() string {
	switch c {
	case NotCapable:
		return "00(non-TCD)"
	case Capable:
		return "01(capable)"
	case UE:
		return "10(UE)"
	case CE:
		return "11(CE)"
	}
	return fmt.Sprintf("CodePoint(%d)", uint8(c))
}

// MarkUE applies the paper's rule "UE can only be marked when the current
// code point is not CE" and returns the updated code point.
func (c CodePoint) MarkUE() CodePoint {
	if c == CE || c == NotCapable {
		return c
	}
	return UE
}

// MarkCE applies the rule "switches mark CE whenever the port is in a
// congestion state" and returns the updated code point.
func (c CodePoint) MarkCE() CodePoint {
	if c == NotCapable {
		return c
	}
	return CE
}

// Kind distinguishes the packet populations in the simulator. Hop-by-hop
// flow-control frames (PAUSE/RESUME/FCCL) are not packets: they travel on
// the fabric's out-of-band control channel.
type Kind uint8

const (
	// Data carries flow payload.
	Data Kind = iota
	// Ack is a receiver acknowledgement (used by TIMELY for RTT samples
	// and by all transports to complete messages).
	Ack
	// CNP is a congestion notification packet from the notification point
	// back to the reaction point (DCQCN CNP / InfiniBand BECN carrier).
	CNP
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case CNP:
		return "cnp"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// FlowID identifies a flow (a message in flight between two hosts).
type FlowID int32

// NodeID identifies a host or switch in the topology.
type NodeID int32

// Packet is a frame in flight. Packets are allocated once at the sender
// and mutated in place as they traverse the fabric (code point upgrades,
// input-port bookkeeping), mirroring how a real frame carries its header
// fields through the network.
type Packet struct {
	// Flow is the owning flow; CNPs and ACKs carry the flow they concern.
	Flow FlowID
	// Src and Dst are the endpoints.
	Src, Dst NodeID
	// Kind is the packet population.
	Kind Kind
	// Size is the wire size in bytes, headers included.
	Size units.ByteSize
	// Payload is the number of flow-payload bytes (Size minus headers).
	Payload units.ByteSize
	// Seq is the zero-based index of this packet within its flow.
	Seq int32
	// Last marks the final data packet of the flow's message.
	Last bool
	// Priority is the PFC priority / InfiniBand virtual lane.
	Priority uint8
	// Code is the TCD/ECN congestion code point, updated by switches.
	Code CodePoint
	// EchoUE and EchoCE are set on CNP/ACK packets to carry the receiver's
	// observation back to the sender (the paper's ternary notification).
	EchoUE, EchoCE bool
	// SentAt is the timestamp the sender's NIC released the packet; ACKs
	// echo it back so TIMELY can compute RTTs without a clock exchange.
	SentAt units.Time
	// InPort tracks, inside a switch, which input port the packet arrived
	// on so ingress accounting can be released on departure. It is
	// meaningless outside the switch that set it; hosts inject with -1.
	InPort int32
	// Hops counts switch traversals (routing-loop guard).
	Hops int8
	// h is the packet's arena handle (its slab index), stamped by
	// Arena.Get and preserved across the zeroing reset so Put can return
	// the packet to the free list without a pointer-to-index lookup.
	h Handle
}

// String renders a compact description for traces and test failures.
func (p *Packet) String() string {
	return fmt.Sprintf("%s flow=%d seq=%d %v %s", p.Kind, p.Flow, p.Seq, p.Size, p.Code)
}

// HeaderBytes is the per-packet header overhead (Ethernet+IP+UDP+RoCE, or
// the IB transport headers — both are ~48 B at the fidelity this simulator
// needs).
const HeaderBytes units.ByteSize = 48

// AckBytes is the wire size of an acknowledgement.
const AckBytes units.ByteSize = 64

// Handle is the index-based identity of an arena packet: chunk number in
// the high bits, offset within the chunk in the low ChunkBits. The zero
// Handle is reserved — Arena.Get never issues it — so it can mean "no
// packet", and a packet that never came from an arena (a zero-value
// literal) is recognizably foreign.
type Handle uint32

// NoHandle is the reserved zero Handle.
const NoHandle Handle = 0

// Arena geometry: packets are allocated in fixed slabs of 2^ChunkBits.
// 512 × ~72 B ≈ 37 KB per slab — big enough that a fig3-scale run lives
// in a handful of slabs, small enough that tiny unit-test networks don't
// balloon.
const (
	ChunkBits = 9
	chunkSize = 1 << ChunkBits
	chunkMask = chunkSize - 1
)

// Arena is a chunked slab allocator for one simulation run's packets.
// Packet is deliberately pointer-free, so a slab is opaque to the garbage
// collector: the collector neither scans slab interiors nor tracks one
// object per packet, and pointers into a slab never go stale because
// chunks, once allocated, are never moved or resized. Packets die at the
// sinks (every packet is eventually consumed by a host), so within a
// single-threaded run the fabric recycles indices through a free list
// instead of allocating ~one object per packet per run. An Arena must not
// be shared between concurrently running simulations; parallel sweeps
// give each run its own network and therefore its own arena.
type Arena struct {
	chunks [][]Packet
	free   []Handle
	// used is the bump-allocation high-water mark: handles below it have
	// been handed out at least once.
	used uint32
	// Recycled counts Put calls, for instrumentation.
	Recycled uint64
}

// Get returns a zeroed packet, reusing a free slab slot when one is
// available and bump-allocating (growing the arena by one chunk at a
// time) otherwise. The returned pointer is stable for the packet's
// lifetime but must not be used after Put.
func (a *Arena) Get() *Packet {
	var h Handle
	if n := len(a.free); n > 0 {
		h = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		if a.used == 0 {
			a.used = 1 // slot 0 backs the reserved NoHandle
		}
		h = Handle(a.used)
		a.used++
		if int(h>>ChunkBits) == len(a.chunks) {
			a.chunks = append(a.chunks, make([]Packet, chunkSize))
		}
	}
	pkt := &a.chunks[h>>ChunkBits][h&chunkMask]
	*pkt = Packet{h: h}
	return pkt
}

// Put recycles a dead arena packet by pushing its handle back on the
// free list. The caller must not touch pkt afterwards: the next Get may
// hand the same slot to an unrelated flow. Only packets obtained from
// this arena's Get may be Put.
func (a *Arena) Put(pkt *Packet) {
	if pkt == nil {
		return
	}
	a.free = append(a.free, pkt.h)
	a.Recycled++
}

// At resolves a handle back to its packet slot.
func (a *Arena) At(h Handle) *Packet {
	return &a.chunks[h>>ChunkBits][h&chunkMask]
}

// Handle reports the packet's arena handle (NoHandle for a packet that
// did not come from an arena).
func (p *Packet) Handle() Handle { return p.h }

// Owns reports whether pkt is a slot of this arena, live or free: a
// packet built as a literal, or taken from another arena, is not. It
// checks only where pkt lives, so it is no use-after-free guard.
func (a *Arena) Owns(pkt *Packet) bool {
	h := pkt.h
	return h != NoHandle && int(h>>ChunkBits) < len(a.chunks) && &a.chunks[h>>ChunkBits][h&chunkMask] == pkt
}

// Len reports the number of packet slots currently parked on the free list.
func (a *Arena) Len() int { return len(a.free) }

// Chunks reports how many slabs the arena has allocated.
func (a *Arena) Chunks() int { return len(a.chunks) }

// Queue is a FIFO of packet handles. It is pointer-free, so pushes and
// pops pay no GC write barriers, and it pops through a head index rather
// than reslicing, so a drained queue reuses its buffer instead of
// reallocating on the next refill.
type Queue struct {
	buf  []Handle
	head int
}

// Push appends h at the tail.
func (q *Queue) Push(h Handle) { q.buf = append(q.buf, h) }

// Empty reports whether the queue holds nothing.
func (q *Queue) Empty() bool { return q.head >= len(q.buf) }

// Peek returns the head without removing it. The queue must not be empty.
func (q *Queue) Peek() Handle { return q.buf[q.head] }

// Handles returns the queued handles, head first. The slice aliases the
// queue's buffer and is valid only until the next Push or Pop.
func (q *Queue) Handles() []Handle { return q.buf[q.head:] }

// Pop removes and returns the head. The queue must not be empty.
func (q *Queue) Pop() Handle {
	h := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 1024 && q.head*2 > len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return h
}

// CNPBytes is the wire size of a congestion notification packet.
const CNPBytes units.ByteSize = 64
