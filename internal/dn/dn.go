// Package dn implements the three distribution networks of Section IV-A.1:
// the MAERI-style Tree Network, the SIGMA-style Benes Network, and the
// unicast Point-to-Point network used by systolic designs. A distribution
// network moves values from the Global Buffer read ports to multiplier
// switches under a per-cycle bandwidth budget, and accounts the link/switch
// activity the energy model consumes.
//
// The dn.active_cycles and dn.stall_cycles counters double as the trace
// layer's classification probes (internal/trace): their per-cycle deltas
// decide whether the DN tier was busy or bandwidth-stalled, so they must
// keep firing on exactly the cycles the network moves or blocks packets.
package dn

import (
	"fmt"
	"math/bits"

	"repro/internal/comp"
	"repro/internal/comp/names"
)

// Delivery is one unique value read from the Global Buffer this cycle,
// fanned out to a set of multiplier-switch destinations. Multicast is a
// single delivery with many destinations; the network decides what that
// costs in bandwidth and link energy.
type Delivery struct {
	Pkt   comp.Packet
	Dests []int
	// Forward marks a value that travels over the multiplier network's
	// forwarding links instead of the distribution tree (Linear MN
	// sliding-window reuse): it keeps its place in the delivery order but
	// consumes no GB read bandwidth.
	Forward bool
}

// Sink receives a packet at a multiplier switch; it returns false when the
// switch cannot accept (operand FIFO full), which back-pressures the
// network.
type Sink func(ms int, p comp.Packet) bool

// Prober reports whether a switch could accept a packet right now without
// delivering it — needed because a multicast must land atomically on every
// destination (a partial retry would duplicate packets).
type Prober func(ms int, p comp.Packet) bool

// Network is the common behaviour of all three DN types.
type Network interface {
	comp.Component
	// Offer enqueues a delivery into the injection queue; false means the
	// queue is full and the caller must retry next cycle.
	Offer(d Delivery) bool
	// Pending reports queued plus in-flight deliveries.
	Pending() int
	// SetSink wires the destination array (normally the multiplier
	// network).
	SetSink(s Sink)
	// SetProber wires the capacity check used for atomic multicast.
	SetProber(p Prober)
	// Bandwidth returns the per-cycle unique-element budget.
	Bandwidth() int
}

// queueCap bounds the injection queue: the controller may run at most this
// many deliveries ahead of the network.
const queueCap = 1024

type base struct {
	name      string
	leaves    int
	bandwidth int
	sink      Sink
	probe     Prober
	// queue is the injection queue, a ring allocated once at queueCap:
	// deliveries [head, head+qn) modulo queueCap are waiting.
	queue    []Delivery
	head, qn int
	counters *comp.Counters

	// Pre-resolved counter handles shared by all DN kinds (per-cycle path).
	cStalls, cInjections, cActive comp.Counter
}

func newBase(name string, leaves, bandwidth int, c *comp.Counters) base {
	return base{
		name:        name,
		leaves:      leaves,
		bandwidth:   bandwidth,
		queue:       make([]Delivery, queueCap),
		counters:    c,
		cStalls:     c.Counter(names.DNStallCycles),
		cInjections: c.Counter(names.DNInjections),
		cActive:     c.Counter(names.DNActiveCycles),
	}
}

func (b *base) Name() string { return b.name }
func (b *base) Offer(d Delivery) bool {
	if len(d.Dests) == 0 {
		return true // nothing to deliver
	}
	if b.qn == queueCap {
		return false
	}
	tail := b.head + b.qn
	if tail >= queueCap {
		tail -= queueCap
	}
	b.queue[tail] = d
	b.qn++
	return true
}
func (b *base) Pending() int       { return b.qn }
func (b *base) SetSink(s Sink)     { b.sink = s }
func (b *base) SetProber(p Prober) { b.probe = p }
func (b *base) Bandwidth() int     { return b.bandwidth }

// Lookahead implements comp.Lookahead for every DN kind: with an empty
// injection queue a distribution network's Cycle is a pure no-op (no
// deliveries, no counters), so an idle network never bounds a fast-forward
// skip; with queued work it must tick.
func (b *base) Lookahead() uint64 {
	if b.qn == 0 {
		return comp.Unbounded
	}
	return 0
}

// Advance implements comp.Lookahead: an idle network has no per-cycle
// state, so skipped cycles replay as nothing at all.
func (b *base) Advance(uint64) {}

// qpop removes the head delivery. The slot keeps its Dests slice until
// overwritten: destination sets are immutable tables owned by the source
// (see sim.Source), so holding one pins nothing the run does not already
// hold.
func (b *base) qpop() {
	b.head++
	if b.head == queueCap {
		b.head = 0
	}
	b.qn--
}

func (b *base) deliverAll(d Delivery) bool {
	// All-or-nothing multicast: probe every destination first, then
	// deliver — a partial delivery retried next cycle would duplicate
	// packets at the destinations that already accepted.
	if b.probe != nil {
		for _, ms := range d.Dests {
			if !b.probe(ms, d.Pkt) {
				return false
			}
		}
	}
	for _, ms := range d.Dests {
		if !b.sink(ms, d.Pkt) {
			return false
		}
	}
	return true
}

// Tree is the MAERI binary distribution tree. One traversal serves an
// arbitrary multicast group in a single cycle; the bandwidth budget counts
// unique values (GB read ports feeding the tree roots).
type Tree struct {
	base
	cLinkTrav comp.Counter
	cForwards comp.Counter
	// stamp marks tree nodes visited during the current Steiner-edge
	// count (generation-tagged to avoid clearing between deliveries —
	// this count runs once per delivered value).
	stamp    []uint32
	stampGen uint32
}

// NewTree builds a tree DN over `leaves` multiplier switches with the given
// per-cycle unique-value bandwidth.
func NewTree(leaves, bandwidth int, c *comp.Counters) *Tree {
	return &Tree{
		base:      newBase("dn.tree", leaves, bandwidth, c),
		cLinkTrav: c.Counter(names.DNLinkTraversals),
		cForwards: c.Counter(names.MNForwards),
		stamp:     make([]uint32, 2*leaves),
	}
}

// Cycle pops up to bandwidth deliveries and multicasts each down the tree.
// Forwarded values ride the MN links instead of the tree — they save the
// GB read and the tree wire energy — but their injection is serialized
// through the same switch-configuration path, so they spend an injection
// slot like any other value. (Calibrated against the MAERI BSV cycle
// counts of Table V, which show no cycle-level benefit from
// sliding-window forwarding at the validation tile.)
func (t *Tree) Cycle() {
	n := 0
	for n < t.bandwidth && t.qn > 0 {
		d := t.queue[t.head]
		if !t.deliverAll(d) {
			t.cStalls.Add(1)
			break // head-of-line blocking until the MN drains
		}
		t.qpop()
		n++
		if d.Forward {
			t.cForwards.Add(uint64(len(d.Dests)))
			continue
		}
		t.cInjections.Add(1)
		t.cLinkTrav.Add(uint64(t.steinerEdges(d.Dests)))
	}
	if n > 0 {
		t.cActive.Add(1)
	}
}

// steinerEdges counts the distinct edges of the complete binary tree
// covered by the union of the root-to-leaf paths of the destination set —
// the wires a single multicast toggles. Visited nodes are marked with a
// per-call generation stamp, so the hot path allocates nothing.
func (t *Tree) steinerEdges(dests []int) int {
	if len(dests) == 0 {
		return 0
	}
	t.stampGen++
	if t.stampGen == 0 { // wrapped: reset all stamps once
		for i := range t.stamp {
			t.stamp[i] = 0
		}
		t.stampGen = 1
	}
	edges := 0
	for _, d := range dests {
		node := t.leaves + d // heap numbering: leaves occupy [leaves, 2*leaves)
		for node > 1 && t.stamp[node] != t.stampGen {
			t.stamp[node] = t.stampGen
			edges++ // each newly covered node contributes its parent edge
			node /= 2
		}
	}
	return edges
}

// Benes is the SIGMA N-input N-output non-blocking network with
// 2·log2(N)+1 switch levels. The streaming gather reads one operand per
// participating multiplier switch from the Global Buffer — a value needed
// by several clusters is fetched once per destination, so the bandwidth
// budget counts destinations, not unique values (this is the arithmetic of
// the paper's Fig. 8 example, and the reason cluster sizes and therefore
// filter scheduling affect performance). The network itself is
// non-blocking, so any set of disjoint paths proceeds in one cycle.
type Benes struct {
	base
	cSwitchTrav comp.Counter
	levels      int
	partial     int // destinations of the head delivery already served
}

// NewBenes builds a Benes DN over `leaves` destinations.
func NewBenes(leaves, bandwidth int, c *comp.Counters) *Benes {
	return &Benes{
		base:        newBase("dn.benes", leaves, bandwidth, c),
		cSwitchTrav: c.Counter(names.DNSwitchTraversals),
		levels:      2*log2ceil(leaves) + 1,
	}
}

// Cycle serves up to bandwidth destination deliveries, splitting a wide
// fan-out across cycles.
func (b *Benes) Cycle() {
	n := 0
	for n < b.bandwidth && b.qn > 0 {
		d := b.queue[b.head]
		for b.partial < len(d.Dests) && n < b.bandwidth {
			ms := d.Dests[b.partial]
			if b.probe != nil && !b.probe(ms, d.Pkt) {
				b.cStalls.Add(1)
				if n > 0 {
					b.cActive.Add(1)
				}
				return
			}
			if !b.sink(ms, d.Pkt) {
				b.cStalls.Add(1)
				if n > 0 {
					b.cActive.Add(1)
				}
				return
			}
			// Replication happens inside the network: the first copy of a
			// value traverses all levels; further copies of the same
			// delivery branch off mid-network and only pay the output
			// half. Mapping more clusters simultaneously widens fan-outs
			// and saves these hops — the DN energy gain the scheduling
			// study reports.
			hops := b.levels
			if b.partial > 0 {
				hops = (b.levels + 1) / 2
			}
			b.partial++
			n++
			b.cInjections.Add(1)
			b.cSwitchTrav.Add(uint64(hops))
		}
		if b.partial == len(d.Dests) {
			b.qpop()
			b.partial = 0
		}
	}
	if n > 0 {
		b.cActive.Add(1)
	}
}

// PointToPoint provides unicast-only delivery: a multicast to k
// destinations costs k bandwidth slots, the defining inefficiency of rigid
// interconnects.
type PointToPoint struct {
	base
	cLinkTrav comp.Counter
	partial   int // how many dests of the head delivery already went out
}

// NewPointToPoint builds the unicast DN.
func NewPointToPoint(leaves, bandwidth int, c *comp.Counters) *PointToPoint {
	return &PointToPoint{
		base:      newBase("dn.popn", leaves, bandwidth, c),
		cLinkTrav: c.Counter(names.DNLinkTraversals),
	}
}

// Cycle sends up to bandwidth unicasts, splitting multicast deliveries into
// one unicast per destination.
func (p *PointToPoint) Cycle() {
	n := 0
	for n < p.bandwidth && p.qn > 0 {
		d := p.queue[p.head]
		for p.partial < len(d.Dests) && n < p.bandwidth {
			ms := d.Dests[p.partial]
			if !p.sink(ms, d.Pkt) {
				p.cStalls.Add(1)
				if n > 0 {
					p.cActive.Add(1)
				}
				return
			}
			p.partial++
			n++
			p.cInjections.Add(1)
			p.cLinkTrav.Add(1)
		}
		if p.partial == len(d.Dests) {
			p.qpop()
			p.partial = 0
		}
	}
	if n > 0 {
		p.cActive.Add(1)
	}
}

// New constructs the DN named by the configuration.
func New(kind string, leaves, bandwidth int, c *comp.Counters) (Network, error) {
	switch kind {
	case "TN":
		return NewTree(leaves, bandwidth, c), nil
	case "BN":
		return NewBenes(leaves, bandwidth, c), nil
	case "PoPN":
		return NewPointToPoint(leaves, bandwidth, c), nil
	default:
		return nil, fmt.Errorf("dn: unknown distribution network %q", kind)
	}
}

func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
