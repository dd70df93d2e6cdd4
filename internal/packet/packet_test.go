package packet

import (
	"testing"
	"testing/quick"
)

// Table 1 semantics: UE can only be marked when the code point is not CE;
// CE is marked whenever a congestion port is traversed.
func TestMarkingRules(t *testing.T) {
	cases := []struct {
		name string
		in   CodePoint
		op   func(CodePoint) CodePoint
		want CodePoint
	}{
		{"capable+UE", Capable, CodePoint.MarkUE, UE},
		{"UE+UE", UE, CodePoint.MarkUE, UE},
		{"CE+UE keeps CE", CE, CodePoint.MarkUE, CE},
		{"capable+CE", Capable, CodePoint.MarkCE, CE},
		{"UE+CE upgrades", UE, CodePoint.MarkCE, CE},
		{"CE+CE", CE, CodePoint.MarkCE, CE},
		{"non-capable never marked UE", NotCapable, CodePoint.MarkUE, NotCapable},
		{"non-capable never marked CE", NotCapable, CodePoint.MarkCE, NotCapable},
	}
	for _, c := range cases {
		if got := c.op(c.in); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// Property: the paper's path rule — "if a packet first passes through an
// undetermined port, then a congestion port, this packet should be
// considered as experiencing congestion". Any sequence of marks containing
// at least one CE must end CE; a sequence with only UE marks ends UE.
func TestPathMarkingProperty(t *testing.T) {
	f := func(ops []bool) bool {
		c := Capable
		sawCE := false
		for _, isCE := range ops {
			if isCE {
				c = c.MarkCE()
				sawCE = true
			} else {
				c = c.MarkUE()
			}
		}
		switch {
		case sawCE:
			return c == CE
		case len(ops) > 0:
			return c == UE
		default:
			return c == Capable
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodePointStrings(t *testing.T) {
	want := map[CodePoint]string{
		NotCapable: "00(non-TCD)",
		Capable:    "01(capable)",
		UE:         "10(UE)",
		CE:         "11(CE)",
	}
	for cp, s := range want {
		if cp.String() != s {
			t.Errorf("%d.String() = %q, want %q", cp, cp.String(), s)
		}
	}
	if CodePoint(9).String() != "CodePoint(9)" {
		t.Errorf("unknown code point string = %q", CodePoint(9).String())
	}
}

func TestKindStrings(t *testing.T) {
	if Data.String() != "data" || Ack.String() != "ack" || CNP.String() != "cnp" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Flow: 7, Kind: Data, Seq: 3, Size: 1048, Code: UE}
	got := p.String()
	want := "data flow=7 seq=3 1.048KB 10(UE)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestArenaRecyclesAndZeroes(t *testing.T) {
	var arena Arena
	a := arena.Get()
	a.Flow, a.Seq, a.Code, a.EchoCE, a.Hops = 7, 42, CE, true, 3
	arena.Put(a)
	if arena.Len() != 1 {
		t.Fatalf("Len() = %d after Put, want 1", arena.Len())
	}
	b := arena.Get()
	if b != a {
		t.Error("Get did not reuse the recycled slab slot")
	}
	if b.Flow != 0 || b.Seq != 0 || b.Code != NotCapable || b.EchoCE || b.Hops != 0 {
		t.Errorf("recycled packet not zeroed: %+v", *b)
	}
	if arena.Len() != 0 {
		t.Errorf("Len() = %d after Get, want 0", arena.Len())
	}
	if arena.Recycled != 1 {
		t.Errorf("Recycled = %d, want 1", arena.Recycled)
	}
}

func TestArenaGetAllocatesWhenEmpty(t *testing.T) {
	var arena Arena
	a, b := arena.Get(), arena.Get()
	if a == nil || b == nil || a == b {
		t.Fatalf("empty arena must hand out distinct packets")
	}
	arena.Put(nil) // nil is a no-op, not a panic
	if arena.Len() != 0 {
		t.Errorf("Len() = %d after Put(nil), want 0", arena.Len())
	}
}

// TestArenaHandlesAndChunks exercises the slab geometry: pointers are
// stable across chunk growth, handles round-trip through At, and the
// arena grows one chunk per 2^ChunkBits bump allocations.
func TestArenaHandlesAndChunks(t *testing.T) {
	var arena Arena
	const n = 3*(1<<ChunkBits) + 17
	pkts := make([]*Packet, n)
	for i := range pkts {
		pkts[i] = arena.Get()
		pkts[i].Seq = int32(i)
	}
	if want := n>>ChunkBits + 1; arena.Chunks() != want {
		t.Errorf("Chunks() = %d after %d gets, want %d", arena.Chunks(), n, want)
	}
	for i, p := range pkts {
		if p.Seq != int32(i) {
			t.Fatalf("packet %d overwritten (Seq=%d): chunk growth moved live packets", i, p.Seq)
		}
		if got := arena.At(p.Handle()); got != p {
			t.Fatalf("At(Handle(pkts[%d])) = %p, want %p", i, got, p)
		}
	}
	// Recycling reuses slots LIFO without growing the arena.
	chunks := arena.Chunks()
	for _, p := range pkts {
		arena.Put(p)
	}
	for range pkts {
		arena.Get()
	}
	if arena.Chunks() != chunks {
		t.Errorf("Chunks() grew %d -> %d across a full recycle", chunks, arena.Chunks())
	}
}

func TestArenaSteadyStateAllocs(t *testing.T) {
	var arena Arena
	arena.Put(arena.Get())
	if allocs := testing.AllocsPerRun(1000, func() {
		arena.Put(arena.Get())
	}); allocs > 0 {
		t.Errorf("steady-state Get/Put allocates %.1f/op, want 0", allocs)
	}
}

// TestArenaReservesNoHandle: the zero handle is never issued, so a
// zero-value literal packet is recognizably foreign, and Owns tells an
// arena's own live slots from literals and other arenas' packets.
func TestArenaReservesNoHandle(t *testing.T) {
	var arena, other Arena
	for i := 0; i < 2*chunkSize; i++ {
		p := arena.Get()
		if p.Handle() == NoHandle {
			t.Fatalf("Get #%d issued the reserved NoHandle", i)
		}
		if !arena.Owns(p) {
			t.Fatalf("arena does not own its packet #%d", i)
		}
	}
	if arena.Owns(&Packet{}) {
		t.Error("arena owns a zero-value literal packet")
	}
	if q := other.Get(); arena.Owns(q) {
		t.Error("arena owns another arena's packet")
	}
}

// TestQueueFIFOAcrossCompaction: a long-lived queue that never fully
// drains compacts its buffer once the consumed prefix dominates; order
// must survive every compaction, and Handles must list exactly the
// queued entries head first.
func TestQueueFIFOAcrossCompaction(t *testing.T) {
	var q Queue
	next, want := Handle(1), Handle(1)
	for round := 0; round < 50; round++ {
		for i := 0; i < 100; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 90; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
			}
			want++
		}
	}
	hs := q.Handles()
	if len(hs) != int(next-want) {
		t.Fatalf("Handles lists %d entries, %d queued", len(hs), next-want)
	}
	for i, h := range hs {
		if h != want+Handle(i) {
			t.Fatalf("Handles()[%d] = %d, want %d", i, h, want+Handle(i))
		}
	}
	if len(q.buf) > 2*len(hs)+1024 {
		t.Errorf("buffer holds %d slots for %d queued handles: consumed prefix never compacted", len(q.buf), len(hs))
	}
	for !q.Empty() {
		q.Pop()
	}
	if len(q.buf) != 0 || q.head != 0 {
		t.Errorf("drained queue kept len %d head %d, want a reset buffer", len(q.buf), q.head)
	}
}
