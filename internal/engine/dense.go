package engine

import (
	"fmt"

	"repro/internal/comp"
	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/dn"
	"repro/internal/mapper"
	"repro/internal/mn"
	"repro/internal/rn"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// flexDenseRunner is the MAERI-like composition: dense controller + tree
// distribution + linear multiplier network + (accumulating) reduction tree.
type flexDenseRunner struct {
	hw config.Hardware
}

// flexRun drives the flexible pipeline: controller → DN → MN → RN, one
// Cycle() each per simulated clock, with back-pressure everywhere. The
// per-clock loop itself is the sim.Kernel; flexRun supplies the controller
// behaviour, the tick order and the completion/progress probes.
type flexRun struct {
	*sim.Ctx
	dnet dn.Network
	marr *mn.Array
	rnet *rn.Net
	src  sim.Source

	// cur is the work item being issued (valid while hasCur). Its slices
	// are the source's scratch: every delivery and job is copied out
	// before the next Next call overwrites them.
	cur      sim.WorkItem
	hasCur   bool
	curDeliv int
	issued   bool // some deliveries of cur already offered
	srcDone  bool

	pending     [][]sim.JobSpec // per-VN FIFO of expected reductions
	pendingJobs int
	// readsPerDest: the Benes gather fetches one GB operand per
	// destination; tree/systolic fabrics read a multicast value once.
	readsPerDest bool

	// valBuf is the reusable product-pop scratch: the RN folds offered
	// values before returning, so one buffer serves every job every cycle.
	valBuf []float32

	// Pre-resolved controller counter handles (per-cycle path).
	cReloadWait, cDramWait comp.Counter

	fatal error

	out []float32
	// sumOut accumulates results into out (sparse controller: every
	// cluster contribution exits the RN and adds into the GB-side output);
	// otherwise results overwrite (dense: the RN accumulator already
	// folded them).
	sumOut    bool
	completed int
	expected  int
}

// flexRun consumes reduction-network results — it is the run's sim.Sink.
var _ sim.Sink = (*flexRun)(nil)

func newFlexRun(ctx *sim.Ctx, numVNs int, outLen, expected int) (*flexRun, error) {
	hw := ctx.HW
	dnet, err := dn.New(hw.DN.String(), hw.MSSize, hw.DNBandwidth, ctx.Counters)
	if err != nil {
		return nil, err
	}
	rkind := rn.ARTAcc
	switch hw.RN {
	case config.ARTRN:
		rkind = rn.ART
	case config.ARTAccRN:
		rkind = rn.ARTAcc
	case config.FANRN:
		rkind = rn.FAN
	case config.LinearRN:
		rkind = rn.Linear
	}
	f := &flexRun{
		Ctx:         ctx,
		dnet:        dnet,
		marr:        mn.NewArray(hw.MSSize, hw.FIFODepth, hw.MN == config.LinearMN, ctx.Counters),
		rnet:        rn.New(rkind, hw.MSSize, hw.RNBandwidth, ctx.Counters),
		pending:     make([][]sim.JobSpec, numVNs),
		out:         make([]float32, outLen),
		expected:    expected,
		cReloadWait: ctx.Counters.Counter(names.CtrlReloadWaitCycles),
		cDramWait:   ctx.Counters.Counter(names.CtrlDRAMWaitCycles),
	}
	f.readsPerDest = hw.DN == config.BenesDN
	f.dnet.SetSink(f.marr.Deliver)
	f.dnet.SetProber(f.marr.CanDeliver)
	f.rnet.SetSink(f.Consume)
	return f, nil
}

// Consume scatters one reduced result into the output buffer and accounts
// the Global Buffer write-back (sim.Sink).
func (f *flexRun) Consume(r rn.Result) {
	f.GB.Write(1)
	if f.sumOut {
		f.out[r.OutIdx] += r.Value
		f.completed++
		return
	}
	if f.rnet.HasAccumulator() {
		f.out[r.OutIdx] = r.Value
		f.completed++
		return
	}
	// Without accumulators every fold's partial sum leaves through the
	// output ports; the controller re-reads it for the next fold.
	f.out[r.OutIdx] += r.Value
	if r.Last {
		f.completed++
	} else {
		f.GB.Read(1) // psum re-fetch for the next fold
	}
}

// configureVNs programs the VN membership (Configuration Unit signals).
func (f *flexRun) configureVNs(vns [][]int) error {
	if len(vns) != len(f.pending) {
		return fmt.Errorf("engine: VN count %d does not match job table %d", len(vns), len(f.pending))
	}
	return f.marr.ConfigureVNs(vns)
}

// ctrlCycle is the memory controller's per-clock behaviour: fire ready
// reductions, then issue as much of the schedule as the DN accepts.
func (f *flexRun) ctrlCycle() {
	// 1. Fire ready virtual neurons into the reduction network.
	for vn := range f.pending {
		q := f.pending[vn]
		if len(q) == 0 {
			continue
		}
		j := q[0]
		var ready bool
		if j.Members != nil {
			ready = f.marr.ReadyMembers(j.Members, j.Seq, j.Expect)
		} else {
			ready = f.marr.ReadyVN(vn, j.Seq, j.Expect)
		}
		if !ready || !f.rnet.CanAccept(j.Expect) {
			continue
		}
		members := j.Members
		if members == nil {
			members = f.marr.VNs()[vn]
		}
		// The RN folds Values before Offer returns, so the scratch buffer is
		// free to reuse for the next VN in the same cycle.
		f.valBuf, _ = f.marr.AppendPop(f.valBuf[:0], members, j.Seq)
		f.rnet.Offer(rn.Job{VN: vn, Seq: j.Seq, Values: f.valBuf, OutIdx: j.OutIdx, Last: j.Last})
		// Copy-down pop keeps the per-VN queue's backing array.
		nq := copy(q, q[1:])
		f.pending[vn] = q[:nq]
		f.pendingJobs--
	}

	// 2. Issue schedule items.
	for {
		if !f.hasCur {
			item, ok := f.src.Next()
			if !ok {
				f.srcDone = true
				return
			}
			f.cur, f.hasCur = item, true
			f.curDeliv = 0
			f.issued = false
		}
		if f.cur.Barrier && !f.issued {
			if f.dnet.Pending() > 0 || !f.marr.QuiescentSet(f.cur.ReloadSet) {
				f.cReloadWait.Add(1)
				return
			}
			if f.cur.Reconfig != nil && (f.pendingJobs > 0 || !f.marr.Idle()) {
				f.cReloadWait.Add(1)
				return
			}
			if stall := f.DRAM.StallCycles(float64(f.Cycles)); stall > 0 {
				f.cDramWait.Add(1)
				return
			}
			if f.cur.Reconfig != nil {
				if err := f.cur.Reconfig(); err != nil {
					f.fatal = err
					return
				}
				f.cur.Reconfig = nil
			}
		}
		if f.cur.Prefetch > 0 && !f.issued {
			f.DRAM.BeginPrefetch(float64(f.Cycles), f.cur.Prefetch)
		}
		for f.curDeliv < len(f.cur.Deliveries) {
			d := f.cur.Deliveries[f.curDeliv]
			if !f.dnet.Offer(d) {
				f.issued = true
				return // DN injection queue full; resume next cycle
			}
			if !d.Forward {
				if f.readsPerDest {
					f.GB.Read(len(d.Dests))
				} else {
					f.GB.Read(1)
				}
			}
			f.curDeliv++
			f.issued = true
		}
		for _, j := range f.cur.Jobs {
			//lint:ignore hotpathalloc one append per job at work-item hand-off (amortized), and retireJobs pops by re-slicing so the backing array is reused at steady state
			f.pending[j.VN] = append(f.pending[j.VN], j)
			f.pendingJobs++
		}
		f.hasCur = false
	}
}

// lookahead is the controller's fast-forward bound (sim.Kernel.Lookahead).
// It certifies the two controller steady states in which ctrlCycle's effect
// over the next n cycles is a closed form advance can replay:
//
//   - Barrier DRAM stall: the head work item is a quiesced barrier gated
//     only by the in-flight prefetch. Part 1 scans empty job queues (pure,
//     pendingJobs == 0), part 2 re-checks the quiescence conditions (pure,
//     nothing in flight changes them while the fabric is idle) and hits the
//     DRAM stall — each ticked cycle is exactly cDramWait.Add(1) plus one
//     dram.stall_events count. StallLookahead bounds how many consecutive
//     cycles stay stalled. The Reconfig arm re-checks marr.Idle here so the
//     claim is self-contained rather than leaning on the MN's own bound.
//
//   - Exhausted source: srcDone with no held item and no pending jobs.
//     Part 1 scans empty queues and part 2 re-polls the exhausted source
//     (sources' exhausted path is pure), so ctrlCycle is a no-op for any
//     horizon — the run is draining through the fabric components, whose
//     own bounds then limit the skip.
//
// Anything else — live deliveries, partially issued items, jobs awaiting
// fire — must tick.
func (f *flexRun) lookahead() uint64 {
	if f.fatal != nil || f.pendingJobs != 0 {
		return 0
	}
	if !f.hasCur {
		if f.srcDone {
			return sim.Unbounded
		}
		return 0
	}
	if !f.cur.Barrier || f.issued {
		return 0
	}
	if f.dnet.Pending() > 0 || !f.marr.QuiescentSet(f.cur.ReloadSet) {
		return 0
	}
	if f.cur.Reconfig != nil && !f.marr.Idle() {
		return 0
	}
	return f.DRAM.StallLookahead(f.Cycles)
}

// advance replays n skipped controller cycles (sim.Kernel.Advance). In the
// barrier-stall steady state each ticked cycle would have counted one
// dram-wait cycle and one DRAM stall event; in the exhausted-source state a
// ticked cycle touches nothing.
func (f *flexRun) advance(n uint64) {
	if !f.hasCur {
		return
	}
	f.cDramWait.Add(n)
	f.DRAM.AdvanceStall(n)
}

func (f *flexRun) done() bool {
	return f.srcDone && !f.hasCur && f.pendingJobs == 0 &&
		f.completed >= f.expected &&
		f.dnet.Pending() == 0 && f.rnet.Drained() && f.marr.Idle()
}

// deadlock renders the watchdog diagnostic with the run's stuck state.
func (f *flexRun) deadlock(window uint64) error {
	return fmt.Errorf("engine: no progress for %d cycles (completed %d/%d, pending jobs %d, dn pending %d)",
		window, f.completed, f.expected, f.pendingJobs, f.dnet.Pending())
}

// run executes the cycle kernel to completion: the controller acts, then
// DN → MN → RN tick in pipeline order.
func (f *flexRun) run() error {
	k := &sim.Kernel{
		Ctx:       f.Ctx,
		Control:   f.ctrlCycle,
		Ticks:     []sim.Tickable{f.dnet, f.marr, f.rnet},
		Done:      f.done,
		Progress:  func() int { return f.completed },
		Waiting:   func() uint64 { return f.cDramWait.Value() },
		Err:       func() error { return f.fatal },
		Draining:  func() bool { return f.srcDone && !f.hasCur },
		Deadlock:  f.deadlock,
		Lookahead: f.lookahead,
		Advance:   f.advance,
	}
	if err := k.Run(); err != nil {
		return err
	}
	f.marr.CollectFIFOStats()
	return nil
}

// ---------------------------------------------------------------------------
// GEMM scheduler
// ---------------------------------------------------------------------------

// gemmSource emits the schedule for a dense M×N×K GEMM on the flexible
// fabric: for each row block, column panel and fold — a weight load
// followed by one compute step per column group.
type gemmSource struct {
	A, B    *tensor.Tensor
	m, n, k int
	t       mapper.GEMMTile

	panelCols int // columns per panel (accumulation-buffer bound)

	mblocks, panels, groupsPerPanel, folds int

	// Immutable destination tables (see sim.Source), built once at
	// construction. weightDests[i·KSlice+p] holds the TN column replicas
	// of row i's slice element p. streamDests[v][j·KSlice+p] holds the
	// row switches of column replica j that consume B element p: v = 0
	// for a full row block, v = 1 for the last block when M leaves it
	// partial.
	weightDests [][]int
	streamDests [2][][]int

	// Work-item scratch, sized for the largest item and overwritten by
	// every Next.
	reload []int
	deliv  []dn.Delivery
	jobs   []sim.JobSpec

	// iteration state
	mb, panel, fold, ng int
	phase               int // 0 = weight load, 1 = stream
	seq                 int
	exhausted           bool
}

var _ sim.Source = (*gemmSource)(nil)

func newGEMMSource(A, B *tensor.Tensor, t mapper.GEMMTile) *gemmSource {
	m, k := A.Dim(0), A.Dim(1)
	n := B.Dim(1)
	g := &gemmSource{A: A, B: B, m: m, n: n, k: k, t: t}
	g.panelCols = sim.MaxAccEntries / t.TM
	if g.panelCols < t.TN {
		g.panelCols = t.TN
	}
	g.panelCols -= g.panelCols % t.TN
	if g.panelCols > n {
		g.panelCols = n
	}
	g.mblocks = ceilDiv(m, t.TM)
	g.panels = ceilDiv(n, g.panelCols)
	g.groupsPerPanel = ceilDiv(g.panelCols, t.TN)
	g.folds = ceilDiv(k, t.KSlice)

	lastRows := m - (g.mblocks-1)*t.TM
	g.weightDests = destTable(t.TM*t.KSlice, t.TN, func(e, j int) int {
		return g.ms(e/t.KSlice, j, e%t.KSlice)
	})
	g.streamDests[0] = destTable(t.TN*t.KSlice, t.TM, func(e, i int) int {
		return g.ms(i, e/t.KSlice, e%t.KSlice)
	})
	g.streamDests[1] = destTable(t.TN*t.KSlice, lastRows, func(e, i int) int {
		return g.ms(i, e/t.KSlice, e%t.KSlice)
	})

	g.reload = make([]int, t.TM*t.KSlice*t.TN)
	g.deliv = make([]dn.Delivery, max(t.TM, t.TN)*t.KSlice)
	g.jobs = make([]sim.JobSpec, t.TM*t.TN)
	return g
}

// destTable builds entries immutable destination sets of width switches
// each, dest(e, w) naming the w-th switch of entry e, over one shared
// backing array. Every set is capped at its length, so an append by a
// consumer could never write into a neighbour.
func destTable(entries, width int, dest func(e, w int) int) [][]int {
	flat := make([]int, entries*width)
	table := make([][]int, entries)
	for e := range table {
		set := flat[e*width : (e+1)*width : (e+1)*width]
		for w := range set {
			set[w] = dest(e, w)
		}
		table[e] = set
	}
	return table
}

// expectedOutputs is the number of C elements the schedule will produce.
func (g *gemmSource) expectedOutputs() int { return g.m * g.n }

// vns returns the VN membership: VN (i,j) = i·TN + j occupies KSlice
// consecutive switches.
func (g *gemmSource) vns() [][]int {
	return destTable(g.t.TM*g.t.TN, g.t.KSlice, func(v, p int) int { return v*g.t.KSlice + p })
}

func (g *gemmSource) ms(i, j, p int) int { return (i*g.t.TN+j)*g.t.KSlice + p }

// Next builds the next work item of the GEMM schedule into the source's
// scratch: values are read from the operands, destination sets come from
// the immutable tables.
func (g *gemmSource) Next() (sim.WorkItem, bool) {
	if g.exhausted {
		return sim.WorkItem{}, false
	}
	t := g.t
	k0 := g.fold * t.KSlice
	kw := min(t.KSlice, g.k-k0)
	rows := min(t.TM, g.m-g.mb*t.TM) // valid rows of this block

	if g.phase == 0 {
		// Weight load for (mb, fold): row slices A[mi, k0:k0+kw],
		// multicast across the TN column replicas.
		nd, nr := 0, 0
		for i := 0; i < rows; i++ {
			mi := g.mb*t.TM + i
			for p := 0; p < kw; p++ {
				dests := g.weightDests[i*t.KSlice+p]
				nr += copy(g.reload[nr:], dests)
				g.deliv[nd] = dn.Delivery{
					Pkt:   comp.Packet{Value: g.A.At(mi, k0+p), Kind: comp.WeightPkt},
					Dests: dests,
				}
				nd++
			}
		}
		g.phase = 1
		g.ng = 0
		// Prefetch the next fold's weights while this fold computes.
		return sim.WorkItem{
			Barrier:    true,
			ReloadSet:  g.reload[:nr],
			Prefetch:   t.TM * t.KSlice,
			Deliveries: g.deliv[:nd],
		}, true
	}

	// Stream one column group.
	streamDests := g.streamDests[0]
	if rows < t.TM {
		streamDests = g.streamDests[1]
	}
	colBase := g.panel*g.panelCols + g.ng*t.TN
	colEnd := min(g.n, (g.panel+1)*g.panelCols)
	seq := g.seq
	g.seq++
	nd, nj := 0, 0
	for j := 0; j < t.TN && colBase+j < colEnd; j++ {
		col := colBase + j
		for p := 0; p < kw; p++ {
			g.deliv[nd] = dn.Delivery{
				Pkt:   comp.Packet{Value: g.B.At(k0+p, col), Kind: comp.InputPkt, Seq: seq},
				Dests: streamDests[j*t.KSlice+p],
			}
			nd++
		}
		for i := 0; i < rows; i++ {
			g.jobs[nj] = sim.JobSpec{
				VN: i*t.TN + j, Seq: seq, Expect: kw,
				OutIdx: (g.mb*t.TM+i)*g.n + col,
				Last:   g.fold == g.folds-1,
			}
			nj++
		}
	}

	// Advance iteration: ng → fold → panel → mb.
	g.ng++
	if g.ng >= g.groupsPerPanel || g.panel*g.panelCols+g.ng*t.TN >= g.n {
		g.ng = 0
		g.fold++
		g.phase = 0
		if g.fold >= g.folds {
			g.fold = 0
			g.panel++
			if g.panel >= g.panels {
				g.panel = 0
				g.mb++
				if g.mb >= g.mblocks {
					g.exhausted = true
				}
			}
		}
	}
	return sim.WorkItem{Deliveries: g.deliv[:nd], Jobs: g.jobs[:nj]}, true
}

// RunGEMM simulates a dense GEMM on the tree-based flexible fabric (the
// MAERI-like composition). The controller keeps the operand with more reuse
// stationary: A rows are each reused N times and B columns M times, so when
// M > N the GEMM runs transposed (Cᵀ = Bᵀ×Aᵀ), making the execution
// input-stationary — this is how batch-1 fully-connected layers avoid a
// stationary reload per output row (the dense controller's WS/IS dataflow
// selection of Section IV-B). Configurations with ForceDataflow pin the
// choice instead.
func (r *flexDenseRunner) RunGEMM(A, B *tensor.Tensor, layer string) (*tensor.Tensor, *stats.Run, error) {
	inputStationary := A.Dim(0) > B.Dim(1)
	if r.hw.ForceDataflow {
		inputStationary = r.hw.Dataflow == config.InputStationary
	}
	if inputStationary {
		Ct, run, err := r.gemmWS(transposed(B), transposed(A), layer)
		if err != nil {
			return nil, nil, err
		}
		return transposed(Ct), run, nil
	}
	return r.gemmWS(A, B, layer)
}

func transposed(t *tensor.Tensor) *tensor.Tensor {
	r, c := t.Dim(0), t.Dim(1)
	out := tensor.New(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Set(t.At(i, j), j, i)
		}
	}
	return out
}

// gemmWS is the weight-stationary execution: A row slices stay in the
// switches while B columns stream.
func (r *flexDenseRunner) gemmWS(A, B *tensor.Tensor, layer string) (*tensor.Tensor, *stats.Run, error) {
	m, k := A.Dim(0), A.Dim(1)
	n := B.Dim(1)
	tile, err := mapper.PickGEMM(&r.hw, m, n, k)
	if err != nil {
		return nil, nil, err
	}
	ctx := sim.NewCtx(&r.hw)
	src := newGEMMSource(A, B, tile)
	f, err := newFlexRun(ctx, tile.TM*tile.TN, m*n, src.expectedOutputs())
	if err != nil {
		return nil, nil, err
	}
	if err := f.configureVNs(src.vns()); err != nil {
		return nil, nil, err
	}
	f.src = src
	ctx.InitialFill(m*k + k*n)
	if err := f.run(); err != nil {
		return nil, nil, fmt.Errorf("engine: %s GEMM %s (%dx%dx%d): %w", r.hw.Name, layer, m, n, k, err)
	}
	ctx.DRAM.WriteBack(m * n)
	C, err := tensor.FromSlice(f.out, m, n)
	if err != nil {
		return nil, nil, err
	}
	run := ctx.Finish("GEMM", layer, m, n, k)
	return C, run, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
