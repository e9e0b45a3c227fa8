package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/check"
	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// shapesPerClass is how many distinct seeded ops each kernel class draws.
// Each round runs one op of every class, cycling through the shapes.
const shapesPerClass = 10

// kernelOp is one seeded single-op simulation with its operands.
type kernelOp struct {
	class string
	hw    config.Hardware
	acc   *engine.Accelerator
	op    string // "gemm", "spmm" or "conv"
	A, B  *tensor.Tensor
	in, w *tensor.Tensor
	cs    tensor.ConvShape
	pol   sched.Policy
}

// classHW is the preloaded hardware of each kernel class. maeri_gemm_dram
// throttles DRAM to a trickle so fold-barrier prefetch stalls dominate and
// fast-forward skips most of the simulated cycles.
func classHW(class string) config.Hardware {
	var hw config.Hardware
	switch class {
	case "maeri_gemm", "maeri_conv":
		hw = config.MAERILike(256, 128)
	case "sigma_gemm", "sigma_spmm":
		hw = config.SIGMALike(256, 128)
	case "tpu_gemm", "tpu_conv":
		hw = config.TPULike(256)
	case "snapea_conv":
		hw = config.SNAPEALike(256, 128)
	case "maeri_gemm_dram":
		hw = config.MAERILike(128, 64)
		hw.DRAM.BandwidthGBs = 0.25
		hw.DRAM.Modules = 1
	}
	hw.Preloaded = true
	return hw
}

func randTensor(r *splitmix, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = float32(r.normal())
	}
	return t
}

// newKernelOp draws one op of the class from r.
func newKernelOp(class string, r *splitmix) kernelOp {
	op := kernelOp{class: class, hw: classHW(class)}
	dims := []int{62, 64, 66}
	switch class {
	case "maeri_gemm", "sigma_gemm", "tpu_gemm":
		op.op = "gemm"
		m, n, k := pick(r, dims), pick(r, dims), pick(r, dims)
		op.A, op.B = randTensor(r, m, k), randTensor(r, k, n)
	case "sigma_spmm":
		op.op = "spmm"
		m, n, k := pick(r, dims), pick(r, dims), pick(r, dims)
		op.A, op.B = randTensor(r, m, k), randTensor(r, k, n)
		sparsity := 0.5 + 0.4*r.float64()
		a := op.A.Data()
		for i := range a {
			if r.float64() < sparsity {
				a[i] = 0
			}
		}
		op.pol = pick(r, []sched.Policy{sched.NS, sched.RDM, sched.LFF})
	case "maeri_conv", "tpu_conv", "snapea_conv":
		op.op = "conv"
		c, k := pick(r, []int{8, 12}), pick(r, []int{12, 16})
		x := 12
		op.cs = tensor.ConvShape{R: 3, S: 3, C: c, G: 1, K: k, N: 1, X: x, Y: x, Stride: 1}
		op.w = randTensor(r, k, c, 3, 3)
		op.in = randTensor(r, 1, c, x, x)
		// Activations are post-ReLU, the regime SNAPEA's early cut is sound in.
		op.in.Apply(func(v float32) float32 { return max(v, 0) })
	case "maeri_gemm_dram":
		op.op = "gemm"
		k := pick(r, []int{2560, 2816, 3072})
		op.A, op.B = randTensor(r, 16, k), randTensor(r, k, 16)
	default:
		panic("unknown kernel class " + class)
	}
	return op
}

// run calls the engine entry point of the op.
func (op *kernelOp) run(acc *engine.Accelerator) (*tensor.Tensor, *stats.Run, error) {
	switch op.op {
	case "spmm":
		pol := op.pol
		return acc.RunSpMM(op.A, op.B, op.class, &pol)
	case "conv":
		return acc.RunConv(op.in, op.w, op.cs, op.class)
	default:
		return acc.RunGEMM(op.A, op.B, op.class)
	}
}

// verify checks the op's output under its architecture's numeric contract.
func (op *kernelOp) verify(out *tensor.Tensor) error {
	var rep *check.Report
	var err error
	switch op.op {
	case "spmm":
		rep, err = check.VerifySpMM(op.hw, op.A, op.B, out)
	case "conv":
		rep, err = check.VerifyConv(op.hw, op.in, op.w, op.cs, out)
	default:
		rep, err = check.VerifyGEMM(op.hw, op.A, op.B, out)
	}
	if err != nil {
		return err
	}
	return rep.Err()
}

// kernelSet is the seeded op list: shapesPerClass ops per class, each
// class with one untraced and one traced accelerator.
type kernelSet struct {
	ops    [][]kernelOp // [class][shape]
	traced []*engine.Accelerator
}

func buildKernelSet(seed uint64) (*kernelSet, error) {
	ks := &kernelSet{}
	for _, class := range kernelClasses {
		r := newRNG(seed, "kernels/"+class)
		hw := classHW(class)
		acc, err := engine.New(hw)
		if err != nil {
			return nil, err
		}
		thw := hw
		thw.Trace = &trace.Config{}
		tacc, err := engine.New(thw)
		if err != nil {
			return nil, err
		}
		var ops []kernelOp
		for i := 0; i < shapesPerClass; i++ {
			op := newKernelOp(class, r)
			op.acc = acc
			ops = append(ops, op)
		}
		ks.ops = append(ks.ops, ops)
		ks.traced = append(ks.traced, tacc)
	}
	return ks, nil
}

// classStats accumulates one class's timed ops.
type classStats struct {
	cycles       uint64
	allocs, byts uint64
	skipped      uint64
	latMs        []float64
	shapeNs      [shapesPerClass][]float64 // every timing of each shape
	shapeCycles  [shapesPerClass]uint64
}

// roundNs is the host time of one op of every shape of the class, each
// shape at its median over the pass. Medians keep a burst of host
// contention from moving the figure.
func (st *classStats) roundNs() float64 {
	ns := 0.0
	for _, xs := range st.shapeNs {
		ns += median(xs)
	}
	return ns
}

// roundCycles is the simulated cycles of one op of every shape.
func (st *classStats) roundCycles() uint64 {
	var c uint64
	for _, x := range st.shapeCycles {
		c += x
	}
	return c
}

// kernelPass is the outcome of one time-bounded pass over the op set.
type kernelPass struct {
	perClass []classStats
	latMs    []float64
	tiers    map[string]stats.CycleBreakdown
	wall     float64
}

// runKernelPass runs whole rounds (one op of every class per round) until
// budget seconds of wall time have passed, and at least shapesPerClass+1
// rounds so one shape of every class repeats and its cycle count can be
// compared. Only the engine call is timed; output checks run outside it.
func runKernelPass(ks *kernelSet, budget float64, traced, memstats bool, tr *tracer, cycles map[[2]int]uint64, rep *report) kernelPass {
	p := kernelPass{perClass: make([]classStats, len(kernelClasses)), tiers: map[string]stats.CycleBreakdown{}}
	start := time.Now()
	var ms runtime.MemStats
	for round := 0; round < shapesPerClass+1 || time.Since(start).Seconds() < budget; round++ {
		shape := round % shapesPerClass
		for c := range kernelClasses {
			op := &ks.ops[c][shape]
			acc := op.acc
			if traced {
				acc = ks.traced[c]
			}
			// Each op starts from a collected heap, so it does not pay for
			// the previous op's garbage and the heap peak repeats.
			runtime.GC()
			var m0 runtime.MemStats
			if memstats {
				runtime.ReadMemStats(&m0)
			}
			rep.attempted++
			t0 := time.Now()
			out, run, err := op.run(acc)
			t1 := time.Now()
			if memstats {
				runtime.ReadMemStats(&ms)
			}
			tr.add(0, tr.newID(), "engine."+op.class, t0, t1)
			if err != nil {
				rep.fail("kernels %s: %v", op.class, err)
				continue
			}
			if err := op.verify(out); err != nil {
				rep.fail("kernels %s shape %d: output check: %v", op.class, shape, err)
			}
			key := [2]int{c, shape}
			if want, ok := cycles[key]; ok && want != run.Cycles {
				rep.fail("kernels %s shape %d: sim_cycles %d, earlier repeat %d", op.class, shape, run.Cycles, want)
			}
			cycles[key] = run.Cycles
			st := &p.perClass[c]
			st.cycles += run.Cycles
			st.shapeNs[shape] = append(st.shapeNs[shape], float64(t1.Sub(t0).Nanoseconds()))
			st.shapeCycles[shape] = run.Cycles
			if memstats {
				st.allocs += ms.Mallocs - m0.Mallocs
				st.byts += ms.TotalAlloc - m0.TotalAlloc
			}
			st.skipped += run.Counters[names.TraceFFSkippedCycles]
			for tier, b := range run.Breakdown {
				acc := p.tiers[tier]
				acc.Accumulate(b)
				p.tiers[tier] = acc
			}
			opMs := float64(t1.Sub(t0).Nanoseconds()) / 1e6
			st.latMs = append(st.latMs, opMs)
			p.latMs = append(p.latMs, opMs)
		}
	}
	p.wall = time.Since(start).Seconds()
	return p
}

// cyclesPerSec is the geometric mean over classes of simulated cycles per
// host second, so no class's cycle count can hide another's slowdown.
func (p kernelPass) cyclesPerSec() float64 {
	var xs []float64
	for i := range p.perClass {
		st := &p.perClass[i]
		xs = append(xs, float64(st.roundCycles())/(st.roundNs()/1e9))
	}
	return geomean(xs)
}

// classLatMs returns each class's median op latency.
func (p kernelPass) classLatMs() []float64 {
	var xs []float64
	for _, st := range p.perClass {
		xs = append(xs, median(st.latMs))
	}
	return xs
}

// opsPerSec is the geometric mean over classes of ops per host second. A
// class's ops per simulated cycle is fixed by the seed, so this is
// cyclesPerSec scaled by a constant and carries no signal of its own.
func (p kernelPass) opsPerSec() float64 {
	var opsPerCycle []float64
	for i := range p.perClass {
		opsPerCycle = append(opsPerCycle, shapesPerClass/float64(p.perClass[i].roundCycles()))
	}
	return p.cyclesPerSec() * geomean(opsPerCycle)
}

// classLatencies reports a batch workload's unit latencies. Its units are
// a fixed mix of classes whose latencies differ by orders of magnitude, so
// a percentile over all units would say which class sits at that rank in
// this seed's mix. Instead req_p50_ms is the geometric mean of the
// per-class median latencies (the typical unit) and req_p99_ms the largest
// per-class median (the slowest class).
func classLatencies(rep *report, perClass []float64) {
	rep.layer["req_p50_ms"] = geomean(perClass)
	rep.layer["req_p99_ms"] = sorted(perClass)[len(perClass)-1]
	rep.record["class_median_ms"] = perClass
}

// setupRepeats is how many times each workload builds its set-up; setup_s
// is the median.
const setupRepeats = 3

func runKernels(cfg runConfig, rep *report) error {
	var ks *kernelSet
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := processStart
		if i > 0 {
			t0 = time.Now()
		}
		var err error
		if ks, err = buildKernelSet(cfg.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)
	rep.record["setup_s_samples"] = setups

	cycles := map[[2]int]uint64{}
	budget := cfg.seconds
	if cfg.traced {
		budget /= 2
	}
	plain := runKernelPass(ks, budget, false, cfg.traced, nil, cycles, rep)
	rep.timedEnd()
	rep.e2e["sim_cycles_per_s"] = plain.cyclesPerSec()
	classLatencies(rep, plain.classLatMs())
	rep.e2e["throughput_rps"] = plain.opsPerSec()
	rep.record["req_tail_all_ops"] = tailOf(sorted(plain.latMs), 0.99)
	rep.record["pass_wall_s"] = plain.wall
	rep.record["ops"] = len(plain.latMs)

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		traced := runKernelPass(ks, budget, true, false, tr, cycles, rep)
		for c, class := range kernelClasses {
			st, tst := plain.perClass[c], traced.perClass[c]
			rep.layer["engine."+class+".ns_per_cycle"] = st.roundNs() / float64(st.roundCycles())
			rep.layer["engine."+class+".allocs_per_cycle"] = float64(st.allocs) / float64(st.cycles)
			rep.layer["engine."+class+".bytes_per_cycle"] = float64(st.byts) / float64(st.cycles)
			rep.layer["engine."+class+".sim_cycles"] = float64(st.roundCycles())
			rep.layer["sim."+class+".ff_skipped_share"] = float64(tst.skipped) / float64(tst.cycles)
		}
		for i, name := range trace.TierNames {
			b := traced.tiers[name]
			rep.layer["tier."+tierNames[i]+".busy_share"] = float64(b.Busy) / float64(b.Total())
			rep.layer["tier."+tierNames[i]+".stall_share"] = float64(b.StallInput+b.StallBandwidth) / float64(b.Total())
		}
		rep.layer["trace.overhead_pct"] = (plain.cyclesPerSec()/traced.cyclesPerSec() - 1) * 100
	}
	if err := runTableV(rep, tr); err != nil {
		return err
	}
	return dumpSpans(cfg, "kernels", tr)
}

// runTableV simulates the eleven Table V rows and reports their error
// against the published RTL cycle counts. The rows are deterministic, so
// every workload reports the same figure; it moves only when the model
// changes.
func runTableV(rep *report, tr *tracer) error {
	rows := engine.TableV()
	if len(rows) != len(tableVRowNames()) {
		return fmt.Errorf("Table V has %d rows, the benchmark names %d", len(rows), len(tableVRowNames()))
	}
	sum := 0.0
	for i, row := range rows {
		rep.attempted++
		t0 := time.Now()
		run, err := engine.RunTableVRow(row)
		tr.add(0, tr.newID(), "engine.RunTableVRow", t0, time.Now())
		if err != nil {
			rep.fail("Table V %s: %v", row.Layer, err)
			continue
		}
		e := math.Abs(float64(run.Cycles)-float64(row.RTL)) / float64(row.RTL) * 100
		rep.layer["tablev."+tableVRowNames()[i]+".err_pct"] = e
		sum += e
	}
	rep.e2e["tablev_err_pct"] = sum / float64(len(rows))
	return nil
}

// dumpSpans writes a traced run's spans after the run has ended.
func dumpSpans(cfg runConfig, workload string, tr *tracer) error {
	if tr == nil {
		return nil
	}
	path := fmt.Sprintf("%s/%s-seed%d-spans.json", cfg.outDir, workload, cfg.seed)
	return writeSpanDump(path, tr.snapshot())
}
