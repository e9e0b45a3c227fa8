package main

import (
	"context"
	"math"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/sim"
	"repro/internal/simpool"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/stonne"
)

// Model-chip shape: the 1/16 spatial scale of the paper's figure runs, and
// one MobileNets pipeline over a 2-core SIGMA chip (the composition whose
// shared DRAM shows interconnect contention).
const (
	modelScale  = 16
	chipArch    = "sigma"
	chipCores   = 2
	chipStreams = 4
	// modelTol is the relative tolerance of simulated against native
	// final activations (scale floored at 1e-3), as the stonne suite uses.
	modelTol = 1e-3
)

// modelJob is one whole-network inference of the fan-out.
type modelJob struct {
	tag, arch string
	m         *dnn.Model
	w         *dnn.Weights
	in        *tensor.Tensor
	hw        config.Hardware
}

// modelSet is everything the model-chip workload simulates.
type modelSet struct {
	jobs      []modelJob
	chipModel *dnn.Model
	chipW     *dnn.Weights
	chipIns   []*tensor.Tensor
	chipHW    config.Hardware
}

func buildModelSet(seed uint64) (*modelSet, error) {
	ms := &modelSet{}
	r := newRNG(seed, "model-chip")
	for _, tag := range modelTags {
		full, err := dnn.ModelByShort(tag)
		if err != nil {
			return nil, err
		}
		m, err := dnn.ScaleSpatial(full, modelScale)
		if err != nil {
			return nil, err
		}
		w := dnn.InitWeights(m, r.next())
		if err := w.Prune(m.Sparsity); err != nil {
			return nil, err
		}
		in := dnn.RandomInput(m, r.next())
		for _, arch := range modelArchs {
			hw, err := sim.PresetHW(arch, 256, 128)
			if err != nil {
				return nil, err
			}
			ms.jobs = append(ms.jobs, modelJob{tag: tag, arch: arch, m: m, w: w, in: in, hw: hw})
		}
		if tag == "M" {
			ms.chipModel, ms.chipW = m, w
			for i := 0; i < chipStreams; i++ {
				ms.chipIns = append(ms.chipIns, dnn.RandomInput(m, r.next()))
			}
		}
	}
	hw, err := sim.PresetHW(chipArch, 256, 128)
	if err != nil {
		return nil, err
	}
	ms.chipHW = hw
	return ms, nil
}

// modelOut is one fan-out job's result and host timing.
type modelOut struct {
	out        *tensor.Tensor
	mr         *stats.ModelRun
	start, end time.Time
}

// modelPass is one run of the fixed inference set plus the chip run.
type modelPass struct {
	jobs       []modelOut
	chipOuts   []*tensor.Tensor
	chip       *stats.ChipRun
	runS       float64
	cpuS       float64 // process CPU seconds of the pass
	fanS       float64
	chipS      float64
	busyShare  float64
	straggler  float64
	cycles     uint64
	latMs      []float64
	firstIdleS float64
}

func runModelPass(ms *modelSet, workers int, traced bool, tr *tracer) (modelPass, error) {
	var p modelPass
	ctx := context.Background()
	cpu0 := processCPU()
	passStart := time.Now()
	mapID := tr.newID()
	jobs := ms.jobs
	if traced {
		jobs = append([]modelJob(nil), ms.jobs...)
		for i := range jobs {
			jobs[i].hw.Trace = &trace.Config{}
		}
	}
	outs, err := simpool.Map(ctx, workers, jobs, func(_ context.Context, i int, j modelJob) (modelOut, error) {
		jobID := tr.newID()
		s := time.Now()
		out, mr, err := stonne.RunModel(j.m, j.w, j.in, j.hw, nil)
		e := time.Now()
		tr.add(jobID, int64(i)+1, "stonne.RunModel", s, e)
		tr.record(jobID, mapID, int64(i)+1, "simpool.job", s, time.Now())
		return modelOut{out: out, mr: mr, start: s, end: e}, err
	})
	fanEnd := time.Now()
	tr.record(mapID, 0, 0, "simpool.Map", passStart, fanEnd)
	if err != nil {
		return p, err
	}
	chipHW := ms.chipHW
	if traced {
		chipHW.Trace = &trace.Config{}
	}
	chipStart := time.Now()
	chipOuts, cr, err := stonne.RunModelChip(ctx, ms.chipModel, ms.chipW, ms.chipIns, chipHW,
		stonne.ChipOptions{Cores: chipCores, Placement: "layer"}, nil)
	chipEnd := time.Now()
	tr.add(0, int64(len(jobs))+1, "stonne.RunModelChip", chipStart, chipEnd)
	if err != nil {
		return p, err
	}
	p.jobs, p.chipOuts, p.chip = outs, chipOuts, cr
	p.runS = chipEnd.Sub(passStart).Seconds()
	p.cpuS = processCPU() - cpu0
	p.fanS = fanEnd.Sub(passStart).Seconds()
	p.chipS = chipEnd.Sub(chipStart).Seconds()
	busy := 0.0
	var ends []float64
	for _, o := range outs {
		d := o.end.Sub(o.start).Seconds()
		busy += d
		p.latMs = append(p.latMs, d*1e3)
		p.cycles += o.mr.TotalCycles()
		ends = append(ends, o.end.Sub(passStart).Seconds())
	}
	p.latMs = append(p.latMs, p.chipS*1e3)
	p.cycles += cr.Total.Cycles
	w := simpool.Workers(workers, len(jobs))
	p.busyShare = busy / (float64(w) * p.fanS)
	// With atomic-index dispatch the first worker finds no job left at the
	// (n-w+1)-th completion; everything after that is straggler time.
	sort.Float64s(ends)
	p.firstIdleS = ends[len(ends)-w]
	p.straggler = p.fanS - p.firstIdleS
	return p, nil
}

func runModelChip(cfg runConfig, rep *report) error {
	var ms *modelSet
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := processStart
		if i > 0 {
			t0 = time.Now()
		}
		var err error
		if ms, err = buildModelSet(cfg.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)
	rep.record["setup_s_samples"] = setups

	budget := cfg.seconds
	if cfg.traced {
		budget /= 2
	}
	passes, err := modelPasses(ms, cfg.workers, budget, false, nil, rep)
	rep.timedEnd()
	if err != nil {
		return err
	}
	// A pass is rated by process CPU time, not wall time, so that the
	// fan-out's idle worker at its tail and host steal do not count.
	var rate, runs, cpus []float64
	for _, p := range passes {
		rate = append(rate, float64(p.cycles)/p.cpuS)
		runs = append(runs, p.runS)
		cpus = append(cpus, p.cpuS)
	}
	units := make([]float64, len(passes[0].latMs))
	for u := range units {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.latMs[u])
		}
		units[u] = median(xs)
	}
	rep.e2e["sim_cycles_per_s"] = median(rate)
	// Every pass runs the same units and simulates the same cycles, so
	// throughput is the cycle rate scaled by a constant.
	rep.e2e["throughput_rps"] = median(rate) * float64(len(units)) / float64(passes[0].cycles)
	classLatencies(rep, units)
	rep.record["run_s"] = runs
	rep.record["cpu_s"] = cpus

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		tpasses, err := modelPasses(ms, cfg.workers, budget, true, tr, rep)
		if err != nil {
			return err
		}
		checkSameCycles(passes[0], tpasses[0], rep)
		for i, j := range ms.jobs {
			var hs []float64
			for _, p := range passes {
				hs = append(hs, p.jobs[i].end.Sub(p.jobs[i].start).Seconds())
			}
			rep.layer["stonne."+j.tag+"."+j.arch+".host_s"] = median(hs)
			rep.layer["stonne."+j.tag+"."+j.arch+".sim_cycles"] = float64(passes[0].jobs[i].mr.TotalCycles())
		}
		var busy, strag, chipS []float64
		for _, p := range passes {
			busy = append(busy, p.busyShare)
			strag = append(strag, p.straggler)
			chipS = append(chipS, p.chipS)
		}
		cr := passes[0].chip
		rep.layer["simpool.busy_share"] = median(busy)
		rep.layer["simpool.straggler_s"] = median(strag)
		rep.layer["chip.host_s"] = median(chipS)
		rep.layer["chip.makespan_cycles"] = float64(cr.MakespanCycles)
		rep.layer["chip.icn_wait_cycles"] = float64(cr.ICNWaitCycles())
		rep.layer["chip.overlap"] = float64(cr.Total.Cycles) / float64(cr.MakespanCycles)
		var tcpus []float64
		for _, p := range tpasses {
			tcpus = append(tcpus, p.cpuS)
		}
		rep.layer["trace.overhead_pct"] = (median(tcpus)/median(cpus) - 1) * 100
	}

	// Output checks, outside every timed span.
	natives := map[*dnn.Model]map[*tensor.Tensor]*tensor.Tensor{}
	native := func(m *dnn.Model, w *dnn.Weights, in *tensor.Tensor) (*tensor.Tensor, error) {
		if natives[m] == nil {
			natives[m] = map[*tensor.Tensor]*tensor.Tensor{}
		}
		if t, ok := natives[m][in]; ok {
			return t, nil
		}
		t, err := stonne.RunModelNative(m, w, in)
		natives[m][in] = t
		return t, err
	}
	for pi, p := range passes {
		for i, j := range ms.jobs {
			want, err := native(j.m, j.w, j.in)
			if err != nil {
				return err
			}
			if d := maxRelDiff(p.jobs[i].out, want); d > modelTol {
				rep.fail("model-chip %s on %s (pass %d): output differs from native by %g", j.tag, j.arch, pi, d)
			}
		}
		for s, in := range ms.chipIns {
			want, err := native(ms.chipModel, ms.chipW, in)
			if err != nil {
				return err
			}
			if d := maxRelDiff(p.chipOuts[s], want); d > modelTol {
				rep.fail("model-chip chip stream %d (pass %d): output differs from native by %g", s, pi, d)
			}
		}
		if pi > 0 {
			checkSameCycles(passes[0], p, rep)
		}
	}
	if err := runTableV(rep, tr); err != nil {
		return err
	}
	return dumpSpans(cfg, "model-chip", tr)
}

// modelPasses runs passes until the budget is spent (at least one). A
// pass starts only when it is expected to end within 10% of the budget.
func modelPasses(ms *modelSet, workers int, budget float64, traced bool, tr *tracer, rep *report) ([]modelPass, error) {
	var passes []modelPass
	start := time.Now()
	for {
		rep.attempted += len(ms.jobs) + 1
		p, err := runModelPass(ms, workers, traced, tr)
		if err != nil {
			rep.fail("model-chip: %v", err)
			return nil, err
		}
		passes = append(passes, p)
		if time.Since(start).Seconds()+p.runS > budget*1.1 {
			return passes, nil
		}
	}
}

// checkSameCycles fails the run when two passes simulated different cycle
// counts for the same job.
func checkSameCycles(a, b modelPass, rep *report) {
	for i := range a.jobs {
		if x, y := a.jobs[i].mr.TotalCycles(), b.jobs[i].mr.TotalCycles(); x != y {
			rep.fail("model-chip job %d: sim_cycles %d then %d", i, x, y)
		}
	}
	if x, y := a.chip.MakespanCycles, b.chip.MakespanCycles; x != y {
		rep.fail("model-chip chip: makespan %d then %d", x, y)
	}
}

// maxRelDiff is the largest element-wise relative difference, with the
// scale floored at 1e-3.
func maxRelDiff(got, want *tensor.Tensor) float64 {
	if got == nil || want == nil || len(got.Data()) != len(want.Data()) {
		return math.Inf(1)
	}
	gd, wd := got.Data(), want.Data()
	worst := 0.0
	for i := range gd {
		d := math.Abs(float64(gd[i]) - float64(wd[i]))
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if s := math.Max(1e-3, math.Abs(float64(wd[i]))); d/s > worst {
			worst = d / s
		}
	}
	return worst
}
