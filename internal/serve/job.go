package serve

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/jobkey"
	"repro/internal/mapper"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simpool"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/stonne"
)

// Request is the POST /jobs body: one simulation job. Either name a preset
// architecture (arch, optionally ms/bw) or supply a complete hardware
// description (hw); conv/tile field names are the paper's uppercase layer
// vocabulary (R, S, C, G, K, N, X, Y, Stride, Padding / TR..TYp).
type Request struct {
	Op   string           `json:"op"`
	Arch string           `json:"arch,omitempty"`
	MS   int              `json:"ms,omitempty"`
	BW   int              `json:"bw,omitempty"`
	HW   *config.Hardware `json:"hw,omitempty"`

	M int `json:"m,omitempty"`
	N int `json:"n,omitempty"`
	K int `json:"k,omitempty"`

	Conv *tensor.ConvShape `json:"conv,omitempty"`
	Tile *mapper.Tile      `json:"tile,omitempty"`

	Sparsity float64 `json:"sparsity,omitempty"`
	Policy   string  `json:"policy,omitempty"`

	Seed  uint64 `json:"seed,omitempty"`
	Batch int    `json:"batch,omitempty"`

	Model string `json:"model,omitempty"`
	// Scale divides the model's spatial dimensions (model op only; 0/1
	// runs the full-size model — expensive for the big Table I networks).
	Scale int         `json:"scale,omitempty"`
	Chip  ChipRequest `json:"chip,omitempty"`

	// Progress streams NDJSON progress samples before the final result
	// line. It never affects the result bytes (trace-only artifacts are
	// scrubbed) and is not part of the cache key.
	Progress bool `json:"progress,omitempty"`
}

// ChipRequest is the multi-core composition of a model job.
type ChipRequest = jobkey.Chip

// Service-side bounds: a single request may not queue unbounded work.
const (
	maxBatch   = 1024
	maxStreams = 256
	maxCores   = 64

	// Defaults when the request names a preset without a fabric size: small
	// enough that an interactive curl answers in milliseconds.
	defaultMS = 64
	defaultBW = 16
)

// Job is a resolved, validated, content-addressed request. It runs only
// from its normalized jobkey.Job, so a field that Normalize erases can
// never change a result cached under the job's key.
type Job struct {
	key  jobkey.Key
	spec jobkey.Job      // normalized; every run-time value is read from it
	hw   config.Hardware // spec.HW plus the result-neutral fast-forward knob
	pol  sched.Policy    // spec.Policy, parsed
	// model is spec.Model scaled by spec.Scale (model op only).
	model *stonne.Model
	// progress streams NDJSON progress; it never affects the result.
	progress bool
}

// Key is the job's content address.
func (j *Job) Key() jobkey.Key { return j.key }

// Seeds lists the per-run data seeds of a gemm/spmm/conv job: one per
// batch element, counting up from the job's seed.
func (j *Job) Seeds() []uint64 {
	seeds := make([]uint64, j.spec.Batch)
	for i := range seeds {
		seeds[i] = j.spec.Seed + uint64(i)
	}
	return seeds
}

// Resolve turns a wire request into a runnable job: presets applied,
// defaults filled in by jobkey.Normalize, operands validated, and the
// content address computed from the normalized values (so every spelling
// of the same job lands on the same key).
func Resolve(req Request) (*Job, error) {
	var hw config.Hardware
	switch {
	case req.HW != nil:
		hw = *req.HW
		if err := hw.Validate(); err != nil {
			return nil, fmt.Errorf("hw: %w", err)
		}
	default:
		name := req.Arch
		if name == "" {
			name = "maeri"
		}
		ms, bw := req.MS, req.BW
		if ms <= 0 {
			ms = defaultMS
		}
		if bw <= 0 {
			bw = defaultBW
		}
		var err error
		hw, err = sim.PresetHW(name, ms, bw)
		if err != nil {
			return nil, err
		}
	}
	// The service is the paper's user-interface mode: operands are
	// generated from the seed and start preloaded in the Global Buffer.
	hw.Preloaded = true
	hw.Trace = nil
	arch, err := sim.Resolve(hw)
	if err != nil {
		return nil, err
	}

	if req.Batch < 0 || req.Batch > maxBatch {
		return nil, fmt.Errorf("batch %d out of range [0,%d]", req.Batch, maxBatch)
	}

	jk := jobkey.Job{
		Arch: arch.Name, Contract: jobkey.Contract(arch.Contract), HW: hw,
		Op: req.Op, M: req.M, N: req.N, K: req.K,
		Sparsity: req.Sparsity, Policy: req.Policy, Tile: req.Tile,
		Seed: req.Seed, Batch: req.Batch,
		Model: req.Model, Scale: req.Scale, Chip: req.Chip,
	}
	if req.Conv != nil {
		jk.Conv = *req.Conv
	}
	j := &Job{spec: jk.Normalize(), hw: hw, progress: req.Progress}
	s := &j.spec
	switch s.Op {
	case jobkey.OpGEMM, jobkey.OpSpMM:
		if s.M <= 0 || s.N <= 0 || s.K <= 0 {
			return nil, fmt.Errorf("%s needs positive m, n, k (got %d, %d, %d)", s.Op, s.M, s.N, s.K)
		}
		if s.Sparsity < 0 || s.Sparsity > 1 {
			return nil, fmt.Errorf("sparsity %g out of [0,1]", s.Sparsity)
		}
	case jobkey.OpConv:
		if req.Conv == nil {
			return nil, fmt.Errorf("conv needs a conv shape")
		}
		if err := s.Conv.Validate(); err != nil {
			return nil, err
		}
		if s.Tile != nil {
			if err := s.Tile.Validate(s.Conv); err != nil {
				return nil, err
			}
		}
	case jobkey.OpModel:
		full, merr := stonne.ModelByShort(s.Model)
		if merr != nil {
			return nil, merr
		}
		if j.model, err = stonne.ScaleSpatial(full, s.Scale); err != nil {
			return nil, err
		}
		if s.Chip.Cores > maxCores {
			return nil, fmt.Errorf("cores %d exceeds the limit %d", s.Chip.Cores, maxCores)
		}
		if s.Chip.Streams > maxStreams {
			return nil, fmt.Errorf("streams %d exceeds the limit %d", s.Chip.Streams, maxStreams)
		}
	case "":
		return nil, fmt.Errorf("request has no op")
	default:
		return nil, fmt.Errorf("unknown op %q (want gemm, conv, spmm or model)", s.Op)
	}
	if j.pol, err = sched.ParsePolicy(s.Policy); err != nil {
		return nil, err
	}
	if j.key, err = s.Hash(); err != nil {
		return nil, err
	}
	return j, nil
}

// Result is the cached payload of one job: everything deterministic about
// the simulation. Map-valued fields marshal with sorted keys, so two runs
// of the same job produce byte-identical JSON — the property the
// content-addressed cache replays.
type Result struct {
	Key  jobkey.Key `json:"key"`
	Op   string     `json:"op"`
	Arch string     `json:"arch"`

	// Seeds lists the per-run data seeds (gemm/spmm/conv; one per batch
	// element), aligned with Runs.
	Seeds []uint64     `json:"seeds,omitempty"`
	Runs  []*stats.Run `json:"runs,omitempty"`
	// Chip is the aggregated result of a model job (always run through the
	// chip composition; one core is the degenerate chip).
	Chip *stats.ChipRun `json:"chip,omitempty"`

	// OutputSums checksums the functional outputs (one per run or stream):
	// the bit-determinism the cache relies on covers values, not just
	// counters, and the sums prove it cheaply.
	OutputSums []float64 `json:"output_sums,omitempty"`

	TotalCycles uint64 `json:"total_cycles"`
}

// progressFn observes one live progress sample of a running job.
type progressFn func(label string, cycles uint64, outputs int, occupancy float64, skipped uint64)

// execute runs the resolved job to completion. batchWorkers bounds the
// simpool fan-out of one batched request; progress, when non-nil, receives
// periodic samples.
func execute(ctx context.Context, j *Job, batchWorkers int, progress progressFn) (*Result, error) {
	res := &Result{Key: j.key, Op: j.spec.Op, Arch: j.spec.Arch}
	var err error
	if j.spec.Op == jobkey.OpModel {
		err = executeModel(ctx, j, res, progress)
	} else {
		err = executeOp(ctx, j, res, batchWorkers, progress)
	}
	if err != nil {
		return nil, err
	}
	if res.Chip != nil {
		res.TotalCycles = res.Chip.MakespanCycles
	}
	for _, r := range res.Runs {
		res.TotalCycles += r.Cycles
	}
	return res, nil
}

// executeOp fans a gemm/spmm/conv batch out over simpool, one RunSeed per
// seed.
func executeOp(ctx context.Context, j *Job, res *Result, batchWorkers int, progress progressFn) error {
	seeds := j.Seeds()
	type runOut struct {
		run *stats.Run
		sum float64
	}
	outs, err := simpool.Map(ctx, batchWorkers, seeds,
		func(_ context.Context, i int, sd uint64) (runOut, error) {
			var tc *trace.Config
			if progress != nil {
				tc = &trace.Config{
					Label:         fmt.Sprintf("%.8s/run%d", j.key, i),
					ProgressEvery: 4096,
					OnProgress: func(p trace.Progress) {
						progress(p.Label, p.Cycles, p.Outputs, p.Occupancy, p.Skipped)
					},
				}
			}
			out, run, rerr := j.RunSeed(sd, tc, false)
			if rerr != nil {
				return runOut{}, rerr
			}
			return runOut{run: scrubRun(run), sum: tensorSum(out)}, nil
		})
	if err != nil {
		return err
	}
	res.Seeds = seeds
	for _, o := range outs {
		res.Runs = append(res.Runs, o.run)
		res.OutputSums = append(res.OutputSums, o.sum)
	}
	return nil
}

// RunSeed simulates one gemm/spmm/conv of the job on a fresh instance,
// with operands derived from seed. It is the single operand synthesis of
// the stonne CLI and the service, so both produce the same run for a job.
// tc, when non-nil, traces the run; selfCheck verifies the output against
// the CPU reference.
func (j *Job) RunSeed(seed uint64, tc *trace.Config, selfCheck bool) (*stonne.Tensor, *stats.Run, error) {
	hw := j.hw
	hw.Trace = tc
	inst, err := stonne.CreateInstance(hw)
	if err != nil {
		return nil, nil, err
	}
	if selfCheck {
		inst.EnableSelfCheck()
	}
	rng := dnn.NewRNG(seed)
	randTensor := func(shape ...int) *stonne.Tensor {
		t := stonne.NewTensor(shape...)
		for i, d := 0, t.Data(); i < len(d); i++ {
			d[i] = float32(rng.Normal())
		}
		return t
	}
	s := &j.spec
	switch s.Op {
	case jobkey.OpGEMM:
		inst.ConfigureDMM()
		inst.ConfigureData(randTensor(s.M, s.K), randTensor(s.K, s.N))
	case jobkey.OpSpMM:
		inst.ConfigureSpMM(j.pol)
		A := randTensor(s.M, s.K)
		pruneTo(A, s.Sparsity)
		inst.ConfigureData(A, randTensor(s.K, s.N))
	case jobkey.OpConv:
		cs := s.Conv
		if err := inst.ConfigureCONV(cs); err != nil {
			return nil, nil, err
		}
		if s.Tile != nil {
			inst.ConfigureTile(*s.Tile)
		}
		w := randTensor(cs.K, cs.C/cs.G, cs.R, cs.S)
		in := stonne.NewTensor(cs.N, cs.C, cs.X, cs.Y)
		for i, d := 0, in.Data(); i < len(d); i++ {
			v := rng.Normal()
			if v < 0 {
				v = 0
			}
			d[i] = float32(v)
		}
		inst.ConfigureData(w, in)
	default:
		return nil, nil, fmt.Errorf("a %s job has no single-operation run", s.Op)
	}
	return inst.RunOperation()
}

// pruneTo zeroes elements with a fixed pruning stream, independent of the
// operand seed.
func pruneTo(t *stonne.Tensor, sparsity float64) {
	d := t.Data()
	rng := dnn.NewRNG(0x9981)
	for i := range d {
		if rng.Float64() < sparsity {
			d[i] = 0
		}
	}
}

// executeModel runs a model job through the chip composition (a 1-core
// chip is byte-identical to the flat model runner), with seeded weights
// pruned to the model's Table I sparsity and one seeded input per stream.
func executeModel(ctx context.Context, j *Job, res *Result, progress progressFn) error {
	m := j.model
	w := stonne.InitWeights(m, j.spec.Seed)
	if err := w.Prune(m.Sparsity); err != nil {
		return err
	}
	chip := j.spec.Chip
	inputs := make([]*stonne.Tensor, chip.Streams)
	for i := range inputs {
		inputs[i] = stonne.RandomInput(m, j.spec.Seed+1+uint64(i))
	}
	copts := stonne.ChipOptions{
		Cores:     chip.Cores,
		Placement: chip.Placement,
		Banks:     chip.Banks,
		LinkGBs:   chip.LinkGBs,
	}
	if progress != nil {
		prefix := string(j.key[:8])
		copts.Progress = func(core, stream, stage int, endCycle uint64) {
			progress(fmt.Sprintf("%s/core%d", prefix, core), endCycle, stream+1, 0, 0)
		}
	}
	outs, cr, err := stonne.RunModelChip(ctx, m, w, inputs, j.hw, copts, &stonne.RunOptions{Policy: j.pol})
	if err != nil {
		return err
	}
	res.Chip = cr
	for _, o := range outs {
		res.OutputSums = append(res.OutputSums, tensorSum(o))
	}
	return nil
}

// scrubRun strips trace-only artifacts (the cycle breakdown and trace.*
// counters) from a run so progress-streamed and untraced executions of the
// same job marshal byte-identically — the differential suite pins every
// remaining field as byte-exact.
func scrubRun(r *stats.Run) *stats.Run {
	if r == nil {
		return nil
	}
	s := *r
	s.Breakdown = nil
	if len(r.Counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.Counters))
		for k, v := range r.Counters {
			if strings.HasPrefix(k, "trace.") {
				continue
			}
			s.Counters[k] = v
		}
	}
	return &s
}

// tensorSum is the float64 checksum of a functional output.
func tensorSum(t *stonne.Tensor) float64 {
	if t == nil {
		return 0
	}
	var sum float64
	for _, v := range t.Data() {
		sum += float64(v)
	}
	return sum
}
