// Package mn implements the multiplier network of Section IV-A.2: the array
// of Multiplier Switches (MSs) holding a stationary operand and multiplying
// it with streamed operands, with optional forwarding links between
// neighbouring switches (Linear MN) that exploit the sliding-window reuse
// of convolutions.
//
// The mn.active_cycles counter doubles as the trace layer's busy probe for
// the MN tier (internal/trace): it must fire exactly on cycles where at
// least one multiplier produced work.
package mn

import (
	"fmt"

	"repro/internal/comp"
	"repro/internal/comp/names"
)

// psumLatchDepth bounds how many reduce steps a switch can run ahead of
// the reduction network before stalling.
const psumLatchDepth = 2

type msState struct {
	stationary float32
	hasStat    bool
	curGen     uint32
	// shadow is the double-buffered stationary register (SIGMA rounds):
	// loaded ahead of time, promoted when the first input of its
	// generation arrives.
	shadow    float32
	shadowGen uint32
	hasShadow bool

	in *comp.FIFO
	// psums latches products awaiting reduction, in step order; the first
	// npsums entries are live.
	psums        [psumLatchDepth]psum
	npsums       int
	lastInput    float32
	lastInputSeq int
	hasLast      bool
}

type psum struct {
	value float32
	seq   int
	last  bool
}

// Array is the multiplier-switch array. The engine assigns each switch to a
// virtual neuron (VN) and tells the array, per VN and step, how many member
// products to expect; ReadyVN reports VNs whose current step is complete.
type Array struct {
	name       string
	n          int
	forwarding bool // Linear MN: forwarding links present
	ms         []msState
	counters   *comp.Counters

	// Pre-resolved counter handles (per-cycle hot path).
	cMults, cActive, cWeightLoads, cForwards, cReconf comp.Counter
	cFifoPushes, cFifoPops                            comp.Counter

	vnMembers [][]int // vn -> member switch indices
	vnOf      []int   // switch -> vn (-1 when unassigned)
}

// NewArray builds an MS array of n switches. forwarding selects the Linear
// MN (true) or Disabled MN (false). fifoDepth bounds each operand FIFO.
func NewArray(n, fifoDepth int, forwarding bool, c *comp.Counters) *Array {
	a := &Array{
		name:         "mn.array",
		n:            n,
		forwarding:   forwarding,
		ms:           make([]msState, n),
		counters:     c,
		cMults:       c.Counter(names.MNMults),
		cActive:      c.Counter(names.MNActiveCycles),
		cWeightLoads: c.Counter(names.MNWeightLoads),
		cForwards:    c.Counter(names.MNForwards),
		cReconf:      c.Counter(names.MNReconfigurations),
		cFifoPushes:  c.Counter(names.MNFifoPushes),
		cFifoPops:    c.Counter(names.MNFifoPops),
		vnOf:         make([]int, n),
	}
	for i := range a.ms {
		a.ms[i].in = comp.NewFIFO(fmt.Sprintf("mn.ms%d.in", i), fifoDepth)
		a.vnOf[i] = -1
	}
	return a
}

// Name implements comp.Component.
func (a *Array) Name() string { return a.name }

// Size returns the number of multiplier switches.
func (a *Array) Size() int { return a.n }

// Forwarding reports whether the array has inter-switch forwarding links.
func (a *Array) Forwarding() bool { return a.forwarding }

// ConfigureVNs assigns switches to virtual neurons. Each inner slice lists
// the member switch indices of one VN. Reconfiguration happens between
// tiles, mirroring the signals the paper's Configuration Unit drives.
func (a *Array) ConfigureVNs(vns [][]int) error {
	for i := range a.vnOf {
		a.vnOf[i] = -1
	}
	for vn, members := range vns {
		for _, ms := range members {
			if ms < 0 || ms >= a.n {
				return fmt.Errorf("mn: VN %d member %d out of range [0,%d)", vn, ms, a.n)
			}
			if a.vnOf[ms] != -1 {
				return fmt.Errorf("mn: switch %d assigned to both VN %d and VN %d", ms, a.vnOf[ms], vn)
			}
			a.vnOf[ms] = vn
		}
	}
	a.vnMembers = vns
	a.cReconf.Add(1)
	return nil
}

// VNs returns the current VN membership table.
func (a *Array) VNs() [][]int { return a.vnMembers }

// CanDeliver is the dn.Prober: it reports whether Deliver would accept the
// packet right now, without side effects.
func (a *Array) CanDeliver(ms int, p comp.Packet) bool {
	s := &a.ms[ms]
	switch p.Kind {
	case comp.WeightPkt:
		if p.Gen != 0 {
			return !s.hasShadow || s.in.Empty()
		}
		return true
	default:
		return !s.in.Full()
	}
}

// Deliver is the dn.Sink: weights land in the stationary register, inputs
// in the operand FIFO. It returns false when the operand FIFO is full.
func (a *Array) Deliver(ms int, p comp.Packet) bool {
	s := &a.ms[ms]
	switch p.Kind {
	case comp.WeightPkt:
		if p.Gen != 0 {
			// A still-unpromoted shadow may only be overwritten when the
			// operand FIFO is empty: deliveries arrive in program order,
			// so an empty FIFO proves no input of the shadow's generation
			// is still coming (streaming sparsity can skip a switch for a
			// whole round). Otherwise back-pressure the network.
			if s.hasShadow && !s.in.Empty() {
				return false
			}
			s.shadow = p.Value
			s.shadowGen = p.Gen
			s.hasShadow = true
		} else {
			s.stationary = p.Value
			s.hasStat = true
			s.curGen = 0
		}
		a.cWeightLoads.Add(1)
		return true
	default:
		return s.in.Push(p)
	}
}

// Forward injects the most recent input of switch `from` into switch `to`
// via the forwarding link, without touching the distribution network. It
// returns false when the source has not seen an input yet or the target
// FIFO is full. Only meaningful on a Linear MN.
func (a *Array) Forward(from, to int) bool {
	if !a.forwarding {
		return false
	}
	src := &a.ms[from]
	if !src.hasLast {
		return false
	}
	ok := a.ms[to].in.Push(comp.Packet{
		Value: src.lastInput, Kind: comp.InputPkt, Seq: src.lastInputSeq,
	})
	if ok {
		a.cForwards.Add(1)
	}
	return ok
}

// StationaryLoaded reports whether every switch in the given set has its
// stationary operand.
func (a *Array) StationaryLoaded(set []int) bool {
	for _, ms := range set {
		if !a.ms[ms].hasStat {
			return false
		}
	}
	return true
}

// InvalidateStationary clears the stationary registers of the given
// switches (between tiles).
func (a *Array) InvalidateStationary(set []int) {
	for _, ms := range set {
		a.ms[ms].hasStat = false
	}
}

// Cycle fires every switch that has a stationary operand, a queued input
// and latch space: one multiply per switch per cycle. An input of a newer
// generation first promotes the matching shadow register; if that shadow
// has not arrived yet, the switch stalls.
func (a *Array) Cycle() {
	fired := 0
	for i := range a.ms {
		s := &a.ms[i]
		if s.npsums == psumLatchDepth {
			continue
		}
		p, ok := s.in.Peek()
		if !ok {
			continue
		}
		if p.Gen != s.curGen {
			if !s.hasShadow || s.shadowGen != p.Gen {
				continue // waiting for this generation's stationary value
			}
			s.stationary = s.shadow
			s.hasStat = true
			s.curGen = p.Gen
			s.hasShadow = false
		}
		if !s.hasStat {
			continue
		}
		s.in.Pop()
		s.lastInput = p.Value
		s.lastInputSeq = p.Seq
		s.hasLast = true
		s.psums[s.npsums] = psum{value: s.stationary * p.Value, seq: p.Seq, last: p.Last}
		s.npsums++
		fired++
	}
	if fired > 0 {
		a.cMults.Add(uint64(fired))
		a.cActive.Add(1)
	}
}

// Lookahead implements comp.Lookahead: an idle array (no queued operands,
// no latched psums) fires nothing and touches no counter, so its Cycle is a
// pure no-op for any horizon; any in-flight work means it must tick. The
// Idle scan is O(switches), which is why the kernel probes the controller's
// cheap bound first and reaches this only in candidate steady states.
func (a *Array) Lookahead() uint64 {
	if a.Idle() {
		return comp.Unbounded
	}
	return 0
}

// Advance implements comp.Lookahead: an idle array has no per-cycle state.
func (a *Array) Advance(uint64) {}

// ReadyVN reports whether VN vn has a complete product set for step seq:
// at least `expect` member switches hold a head psum tagged seq.
func (a *Array) ReadyVN(vn, seq, expect int) bool {
	if vn >= len(a.vnMembers) {
		return false
	}
	return a.ReadyMembers(a.vnMembers[vn], seq, expect)
}

// ReadyMembers is ReadyVN over an explicit member set — used by
// controllers whose cluster shapes change every round and are snapshot
// into the job itself.
func (a *Array) ReadyMembers(members []int, seq, expect int) bool {
	count := 0
	for _, ms := range members {
		s := &a.ms[ms]
		if s.npsums > 0 && s.psums[0].seq == seq {
			count++
		}
	}
	return count >= expect
}

// PopVN removes and returns the head psums of VN vn tagged with step seq.
// last reports whether any contributing product was marked final.
func (a *Array) PopVN(vn, seq int) (values []float32, last bool) {
	return a.PopMembers(a.vnMembers[vn], seq)
}

// PopMembers is PopVN over an explicit member set.
func (a *Array) PopMembers(members []int, seq int) (values []float32, last bool) {
	return a.AppendPop(nil, members, seq)
}

// AppendPop appends the popped head psums of the member set for step seq to
// dst and returns the extended slice — the allocation-free variant the
// cycle loop uses with a reusable scratch buffer.
func (a *Array) AppendPop(dst []float32, members []int, seq int) (values []float32, last bool) {
	values = dst
	for _, ms := range members {
		s := &a.ms[ms]
		if s.npsums > 0 && s.psums[0].seq == seq {
			//lint:ignore hotpathalloc dst is the caller's reusable scratch buffer (reset to len 0 each cycle), so this append reallocates only until it reaches steady-state capacity
			values = append(values, s.psums[0].value)
			last = last || s.psums[0].last
			s.npsums = copy(s.psums[:], s.psums[1:s.npsums])
		}
	}
	return values, last
}

// QuiescentSet reports whether every switch in the set has drained its
// operand FIFO and psum latches — the safe condition for reloading its
// stationary register.
func (a *Array) QuiescentSet(set []int) bool {
	for _, ms := range set {
		s := &a.ms[ms]
		if !s.in.Empty() || s.npsums > 0 {
			return false
		}
	}
	return true
}

// Idle reports whether no switch holds queued inputs or latched psums.
func (a *Array) Idle() bool {
	for i := range a.ms {
		s := &a.ms[i]
		if !s.in.Empty() || s.npsums > 0 {
			return false
		}
	}
	return true
}

// FIFOOccupancy returns the total queued operands (used by tests to check
// back-pressure invariants).
func (a *Array) FIFOOccupancy() int {
	total := 0
	for i := range a.ms {
		total += a.ms[i].in.Len()
	}
	return total
}

// CollectFIFOStats folds per-switch FIFO activity into the counters.
func (a *Array) CollectFIFOStats() {
	for i := range a.ms {
		pushes, pops, _ := a.ms[i].in.Stats()
		a.cFifoPushes.Add(pushes)
		a.cFifoPops.Add(pops)
	}
}
