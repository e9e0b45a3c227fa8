package comp

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/comp/names"
)

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add("a.x", 3)
	c.Add("a.x", 2)
	c.Add("b.y", 1)
	if c.Get("a.x") != 5 || c.Get("b.y") != 1 || c.Get("missing") != 0 {
		t.Errorf("counts wrong: %v", c.Snapshot())
	}
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != "a.x" || keys[1] != "b.y" {
		t.Errorf("keys not sorted: %v", keys)
	}
	other := NewCounters()
	other.Add("a.x", 10)
	other.Add("c.z", 7)
	c.Merge(other)
	if c.Get("a.x") != 15 || c.Get("c.z") != 7 {
		t.Errorf("merge wrong: %v", c.Snapshot())
	}
	s := c.String()
	if !strings.Contains(s, "a.x=15\n") {
		t.Errorf("render: %q", s)
	}
	snap := c.Snapshot()
	snap["a.x"] = 999
	if c.Get("a.x") != 15 {
		t.Error("snapshot aliases internal map")
	}
}

func TestFIFOBasics(t *testing.T) {
	f := NewFIFO("t", 2)
	if !f.Empty() || f.Full() {
		t.Fatal("fresh FIFO state wrong")
	}
	if !f.Push(Packet{Seq: 1}) || !f.Push(Packet{Seq: 2}) {
		t.Fatal("pushes rejected")
	}
	if !f.Full() || f.Push(Packet{Seq: 3}) {
		t.Fatal("overfull push accepted")
	}
	if p, ok := f.Peek(); !ok || p.Seq != 1 {
		t.Fatalf("peek: %v %v", p, ok)
	}
	p, ok := f.Pop()
	if !ok || p.Seq != 1 {
		t.Fatalf("pop order wrong: %v", p)
	}
	pushes, pops, maxOcc := f.Stats()
	if pushes != 2 || pops != 1 || maxOcc != 2 {
		t.Errorf("stats %d %d %d", pushes, pops, maxOcc)
	}
	c := NewCounters()
	f.AddTo(c, names.MNFifoPushes, names.MNFifoPops)
	if c.Get(names.MNFifoPushes) != 2 || c.Get(names.MNFifoPops) != 1 {
		t.Error("AddTo wrong")
	}
}

func TestFIFOUnbounded(t *testing.T) {
	f := NewFIFO("u", 0)
	for i := 0; i < 1000; i++ {
		if !f.Push(Packet{Seq: i}) {
			t.Fatal("unbounded FIFO rejected push")
		}
	}
	if f.Full() {
		t.Error("unbounded FIFO reports full")
	}
	if f.Len() != 1000 {
		t.Errorf("len %d", f.Len())
	}
}

// Property: a FIFO preserves order and never loses packets, including
// across ring wrap-around and growth.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(ops []bool) bool {
		fifo := NewFIFO("p", 0)
		nextPush, nextPop := 0, 0
		for _, push := range ops {
			if push {
				fifo.Push(Packet{Seq: nextPush})
				nextPush++
			} else if p, ok := fifo.Pop(); ok {
				if p.Seq != nextPop {
					return false
				}
				nextPop++
			}
		}
		for {
			p, ok := fifo.Pop()
			if !ok {
				break
			}
			if p.Seq != nextPop {
				return false
			}
			nextPop++
		}
		return nextPop == nextPush
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFIFOCompaction(t *testing.T) {
	f := NewFIFO("c", 0)
	// Grow the ring with a long push run, drain most of it, then push
	// again so the tail wraps past the head.
	for i := 0; i < 500; i++ {
		f.Push(Packet{Seq: i})
	}
	for i := 0; i < 400; i++ {
		p, ok := f.Pop()
		if !ok || p.Seq != i {
			t.Fatalf("pop %d: %v %v", i, p, ok)
		}
	}
	for i := 500; i < 600; i++ {
		f.Push(Packet{Seq: i})
	}
	for i := 400; i < 600; i++ {
		p, ok := f.Pop()
		if !ok || p.Seq != i {
			t.Fatalf("post-compaction pop %d: %v %v", i, p, ok)
		}
	}
}

// TestFIFORingWrap drives a bounded FIFO around its ring many times with
// every occupancy pattern: order, Len, Full and Empty must hold across the
// wrap, and the ring is never reallocated.
func TestFIFORingWrap(t *testing.T) {
	const depth = 3
	f := NewFIFO("w", depth)
	ring := &f.ring[0]
	next, want := 0, 0
	for round := 0; round < 20; round++ {
		fill := 1 + round%depth // 1..depth packets per round
		for i := 0; i < fill; i++ {
			if !f.Push(Packet{Seq: next}) {
				t.Fatalf("round %d: push %d rejected at len %d", round, next, f.Len())
			}
			next++
		}
		if f.Len() != fill || f.Empty() || f.Full() != (fill == depth) {
			t.Fatalf("round %d: len %d empty %v full %v after %d pushes", round, f.Len(), f.Empty(), f.Full(), fill)
		}
		if fill == depth && f.Push(Packet{Seq: -1}) {
			t.Fatalf("round %d: push accepted into a full ring", round)
		}
		for i := 0; i < fill; i++ {
			p, ok := f.Pop()
			if !ok || p.Seq != want {
				t.Fatalf("round %d: pop got %v %v, want seq %d", round, p, ok, want)
			}
			want++
		}
		if !f.Empty() || f.Len() != 0 {
			t.Fatalf("round %d: not empty after draining", round)
		}
	}
	if &f.ring[0] != ring || len(f.ring) != depth {
		t.Error("bounded FIFO reallocated its ring")
	}
	pushes, pops, maxOcc := f.Stats()
	if pushes != uint64(next) || pops != uint64(want) || maxOcc != depth {
		t.Errorf("stats %d/%d/%d, want %d/%d/%d", pushes, pops, maxOcc, next, want, depth)
	}
}

// TestFIFOUnboundedGrowAcrossWrap grows a capacity-0 FIFO while its ring
// is wrapped: the doubling must unwrap the packets in order.
func TestFIFOUnboundedGrowAcrossWrap(t *testing.T) {
	f := NewFIFO("g", 0)
	next, want := 0, 0
	for i := 0; i < 6; i++ { // head moves off slot 0
		f.Push(Packet{Seq: next})
		next++
	}
	for i := 0; i < 5; i++ {
		f.Pop()
		want++
	}
	for i := 0; i < 40; i++ { // wraps, then grows twice
		if !f.Push(Packet{Seq: next}) {
			t.Fatal("unbounded FIFO rejected a push")
		}
		next++
	}
	if f.Full() || f.Len() != next-want {
		t.Fatalf("len %d full %v, want len %d", f.Len(), f.Full(), next-want)
	}
	for ; want < next; want++ {
		if p, ok := f.Pop(); !ok || p.Seq != want {
			t.Fatalf("pop got %v %v, want seq %d", p, ok, want)
		}
	}
	if _, ok := f.Pop(); ok || !f.Empty() {
		t.Error("drained FIFO still pops")
	}
	pushes, pops, maxOcc := f.Stats()
	if pushes != 46 || pops != 46 || maxOcc != 41 {
		t.Errorf("stats %d/%d/%d, want 46/46/41", pushes, pops, maxOcc)
	}
}

func TestPacketKindString(t *testing.T) {
	for k, want := range map[PacketKind]string{
		WeightPkt: "weight", InputPkt: "input", PsumPkt: "psum", OutputPkt: "output",
	} {
		if k.String() != want {
			t.Errorf("%v", k)
		}
	}
}
