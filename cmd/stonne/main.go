// Command stonne is the "STONNE User Interface" of the paper (Fig. 2):
// it loads any layer or GEMM with any dimensions onto a selected simulator
// instance, runs it with deterministic random tensors, and reports the
// statistics — the fast path for prototyping and debugging without the
// full DL-framework front end.
//
// Examples:
//
//	stonne gemm -arch maeri -ms 128 -bw 32 -M 64 -N 64 -K 256
//	stonne conv -arch tpu -ms 256 -R 3 -S 3 -C 64 -K 64 -X 56 -Y 56
//	stonne spmm -arch sigma -ms 256 -bw 128 -M 128 -N 128 -K 512 -sparsity 0.8 -policy LFF
//	stonne gemm -hw my_hw.cfg -M 32 -N 32 -K 64 -json out.json -counters out.counters
//	stonne gemm -arch maeri -M 64 -N 64 -K 256 -batch 8 -workers 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/simpool"
	"repro/internal/trace"
	"repro/stonne"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	op := os.Args[1]
	if op == "-list-archs" || op == "--list-archs" || op == "list-archs" {
		listArchs()
		return
	}
	f, err := parseFlags(op, os.Args[2:])
	if err != nil {
		os.Exit(2)
	}
	hw, err := f.hardware()
	if err != nil {
		fatal(err)
	}

	switch op {
	case "gemm", "spmm", "conv":
	case "model":
		if f.cores > 1 || f.streams > 1 {
			runModelChipCmd(hw, f)
		} else {
			runModelCmd(hw, f)
		}
		return
	case "train":
		runTrainCmd(hw, f)
		return
	default:
		usage()
		os.Exit(2)
	}

	j, err := serve.Resolve(f.request(op, hw))
	if err != nil {
		fatal(err)
	}
	sink := newTraceSink(f.traceOut != "", f.progress)
	runs, err := runBatch(j, f, sink)
	if err != nil {
		fatal(err)
	}
	if f.traceOut != "" {
		if werr := sink.writeChrome(f.traceOut); werr != nil {
			fatal(werr)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open in https://ui.perfetto.dev)\n", f.traceOut)
	}
	seeds := j.Seeds()
	for i, run := range runs {
		if len(runs) > 1 {
			fmt.Printf("== run %d (seed %d) ==\n", i, seeds[i])
		}
		printRun(run)
		if f.jsonOut != "" {
			if err := writeJSON(run, batchPath(f.jsonOut, i, len(runs))); err != nil {
				fatal(err)
			}
		}
		if f.counterOut != "" {
			if err := os.WriteFile(batchPath(f.counterOut, i, len(runs)), []byte(run.CounterFile()), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	if f.selfcheck {
		// A failed check surfaces as a run error above, so reaching this
		// point means every output matched the CPU reference.
		fmt.Printf("self-check  : %d run(s) verified against the CPU reference\n", len(runs))
	}
}

// flags is the parsed command line of one subcommand.
type flags struct {
	arch, hwFile, policy, placement                     string
	jsonOut, counterOut, traceOut                       string
	modelFile, weightsFile, saveWeights                 string
	ms, bw, m, n, k, r, s, c, g, kf, x, y, stride, pad  int
	label, steps, batch, workers, cores, banks, streams int
	sparsity, lr                                        float64
	seed                                                uint64
	selfcheck, progress, fastforward                    bool
}

func parseFlags(op string, args []string) (*flags, error) {
	f := &flags{}
	fs := flag.NewFlagSet(op, flag.ExitOnError)
	fs.StringVar(&f.arch, "arch", "maeri", "preset architecture: tpu | maeri | sigma | snapea")
	fs.StringVar(&f.hwFile, "hw", "", "hardware configuration file (overrides -arch)")
	fs.IntVar(&f.ms, "ms", 256, "number of multiplier switches")
	fs.IntVar(&f.bw, "bw", 128, "GB bandwidth in elements/cycle")
	fs.IntVar(&f.m, "M", 16, "GEMM M")
	fs.IntVar(&f.n, "N", 16, "GEMM N")
	fs.IntVar(&f.k, "K", 16, "GEMM K")
	fs.IntVar(&f.r, "R", 3, "filter rows")
	fs.IntVar(&f.s, "S", 3, "filter columns")
	fs.IntVar(&f.c, "C", 16, "input channels")
	fs.IntVar(&f.g, "G", 1, "groups")
	fs.IntVar(&f.kf, "Kf", 16, "filters")
	fs.IntVar(&f.x, "X", 16, "input rows")
	fs.IntVar(&f.y, "Y", 16, "input columns")
	fs.IntVar(&f.stride, "stride", 1, "stride")
	fs.IntVar(&f.pad, "pad", 0, "padding")
	fs.Float64Var(&f.sparsity, "sparsity", 0.8, "MK weight sparsity for spmm")
	fs.StringVar(&f.policy, "policy", "NS", "filter scheduling policy, any case: NS | RDM | LFF")
	fs.Uint64Var(&f.seed, "seed", 1, "random tensor seed")
	fs.StringVar(&f.jsonOut, "json", "", "write the JSON summary to this file")
	fs.StringVar(&f.counterOut, "counters", "", "write the counter file to this path")
	fs.StringVar(&f.modelFile, "file", "", "JSON model description (model/train subcommands)")
	fs.StringVar(&f.weightsFile, "weights", "", "binary weights file (optional; random weights otherwise)")
	fs.StringVar(&f.saveWeights, "save-weights", "", "write the (generated or trained) weights to this path")
	fs.IntVar(&f.label, "label", 0, "target class for the train subcommand")
	fs.Float64Var(&f.lr, "lr", 0.01, "SGD learning rate for the train subcommand")
	fs.IntVar(&f.steps, "steps", 1, "SGD steps for the train subcommand")
	fs.IntVar(&f.batch, "batch", 1, "independent runs with seeds seed..seed+batch-1 (gemm/spmm/conv)")
	fs.IntVar(&f.workers, "workers", 0, "parallel simulation jobs for -batch (0 = GOMAXPROCS, 1 = serial)")
	fs.BoolVar(&f.selfcheck, "selfcheck", false, "verify every simulated output against the CPU reference (gemm/spmm/conv)")
	fs.StringVar(&f.traceOut, "trace", "", "write a Chrome trace_event JSON cycle trace to this file (gemm/spmm/conv)")
	fs.BoolVar(&f.progress, "progress", false, "print periodic per-job progress to stderr (gemm/spmm/conv/model)")
	fs.IntVar(&f.cores, "cores", 1, "simulated cores on the chip (model subcommand; >1 shares a banked DRAM)")
	fs.StringVar(&f.placement, "placement", "layer", "multi-core placement policy: layer (pipeline stages) | batch (whole streams)")
	fs.IntVar(&f.banks, "banks", 0, "shared DRAM banks for multi-core runs (0 = default)")
	fs.IntVar(&f.streams, "streams", 1, "independent inference streams for multi-core model runs")
	fs.BoolVar(&f.fastforward, "fastforward", true, "skip provably-idle cycles (bit-exact; -fastforward=false forces the fully ticked loop)")
	return f, fs.Parse(args)
}

// hardware is the -hw file, or else the -arch preset sized by -ms/-bw, in
// user-interface mode: operands start in preloaded buffers.
func (f *flags) hardware() (stonne.Hardware, error) {
	var hw stonne.Hardware
	if f.hwFile != "" {
		inst, err := stonne.CreateInstanceFromFile(f.hwFile)
		if err != nil {
			return hw, err
		}
		hw = inst.HW()
	} else {
		var err error
		if hw, err = sim.PresetHW(f.arch, f.ms, f.bw); err != nil {
			return hw, err
		}
	}
	hw.Preloaded = true
	hw.DisableFastForward = !f.fastforward
	return hw, nil
}

// request is the gemm/spmm/conv job of the flags, spelled as the service
// request the daemon would run for it.
func (f *flags) request(op string, hw stonne.Hardware) serve.Request {
	return serve.Request{
		Op: op, HW: &hw,
		M: f.m, N: f.n, K: f.k,
		Conv: &stonne.ConvShape{
			R: f.r, S: f.s, C: f.c, G: f.g, K: f.kf, N: 1,
			X: f.x, Y: f.y, Stride: f.stride, Padding: f.pad,
		},
		Sparsity: f.sparsity, Policy: f.policy,
		Seed: f.seed, Batch: max(f.batch, 1),
	}
}

// runBatch runs every seed of the job on its own simulator instance,
// through the run the daemon uses, so batched runs share nothing.
func runBatch(j *serve.Job, f *flags, sink *traceSink) ([]*stonne.Run, error) {
	return simpool.Map(context.Background(), f.workers, j.Seeds(),
		func(_ context.Context, i int, sd uint64) (*stonne.Run, error) {
			_, run, err := j.RunSeed(sd, sink.configFor(fmt.Sprintf("run %d (seed %d)", i, sd)), f.selfcheck)
			return run, err
		})
}

// traceSink collects completed run traces and live progress samples from
// concurrently executing jobs. Both hooks are invoked from pool worker
// goroutines, so all state is mutex-guarded.
type traceSink struct {
	collect  bool
	progress bool

	mu        sync.Mutex
	traces    []*trace.RunTrace
	board     *simpool.Board
	lastPrint time.Time
}

func newTraceSink(collect, progress bool) *traceSink {
	return &traceSink{collect: collect, progress: progress, board: simpool.NewBoard()}
}

// configFor builds the per-job trace configuration, or nil when neither
// tracing nor progress reporting is enabled (leaving the run untraced).
func (s *traceSink) configFor(label string) *trace.Config {
	if !s.collect && !s.progress {
		return nil
	}
	cfg := &trace.Config{Label: label}
	if s.collect {
		cfg.OnComplete = s.complete
	}
	if s.progress {
		cfg.ProgressEvery = 4096
		cfg.OnProgress = s.onProgress
	}
	return cfg
}

func (s *traceSink) complete(rt *trace.RunTrace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces = append(s.traces, rt)
	s.board.Finish(rt.Label)
}

// onProgress updates the board and prints a throttled status line (at most
// twice per second, regardless of how many jobs report).
func (s *traceSink) onProgress(p trace.Progress) {
	s.board.Update(p.Label, p.Cycles, p.Outputs, p.Occupancy, p.Skipped)
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := time.Now(); now.Sub(s.lastPrint) >= 500*time.Millisecond {
		s.lastPrint = now
		fmt.Fprintf(os.Stderr, "progress: %s\n", s.board.Summary())
	}
}

func (s *traceSink) writeChrome(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteChrome(f, s.traces)
}

func printRun(run *stonne.Run) {
	fmt.Printf("accelerator : %s\n", run.Accelerator)
	fmt.Printf("operation   : %s (M=%d N=%d K=%d)\n", run.Op, run.M, run.N, run.K)
	fmt.Printf("cycles      : %d\n", run.Cycles)
	fmt.Printf("time @1GHz  : %.3f µs\n", run.TimeSeconds(1)*1e6)
	fmt.Printf("MACs        : %d\n", run.MACs)
	fmt.Printf("utilization : %.1f%%\n", 100*run.Utilization)
	fmt.Printf("mem accesses: %d\n", run.MemAccesses)
	fmt.Printf("energy      : %.3f µJ\n", run.TotalEnergy())
	for _, comp := range []string{"GB", "DN", "MN", "RN"} {
		if v, ok := run.Energy[comp]; ok {
			fmt.Printf("  %-4s %10.4f µJ\n", comp, v)
		}
	}
	if len(run.Breakdown) > 0 {
		fmt.Printf("cycle breakdown (%% of %d cycles):\n", run.Cycles)
		fmt.Printf("  %-4s %7s %9s %9s %7s %7s\n", "tier", "busy", "stall-in", "stall-bw", "drain", "idle")
		for _, tier := range []string{"DN", "MN", "RN", "MEM"} {
			b, ok := run.Breakdown[tier]
			if !ok {
				continue
			}
			pct := func(v uint64) float64 {
				if run.Cycles == 0 {
					return 0
				}
				return 100 * float64(v) / float64(run.Cycles)
			}
			fmt.Printf("  %-4s %6.1f%% %8.1f%% %8.1f%% %6.1f%% %6.1f%%\n",
				tier, pct(b.Busy), pct(b.StallInput), pct(b.StallBandwidth), pct(b.Drain), pct(b.Idle))
		}
	}
}

// batchPath suffixes an output path with the run index when batching, so
// -batch 1 keeps the exact path the user asked for.
func batchPath(path string, i, batch int) string {
	if batch == 1 {
		return path
	}
	return fmt.Sprintf("%s.%d", path, i)
}

func writeJSON(run *stonne.Run, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return run.WriteJSON(f)
}

// listArchs prints the architecture registry — every composition this
// build can simulate, in registration order.
func listArchs() {
	fmt.Println("registered architectures:")
	for _, a := range sim.List() {
		fmt.Printf("  %-8s %-18s %s\n", a.Name, a.Title, a.Description)
	}
}

// loadModelAndWeights resolves the model/weights flags shared by the
// model and train subcommands.
func loadModelAndWeights(modelFile, weightsFile string, seed uint64) (*stonne.Model, *stonne.Weights, *stonne.Tensor) {
	if modelFile == "" {
		fatal(fmt.Errorf("the subcommand needs -file <model.json>"))
	}
	m, err := stonne.LoadModelFile(modelFile)
	if err != nil {
		fatal(err)
	}
	var w *stonne.Weights
	if weightsFile != "" {
		w, err = stonne.LoadWeightsFile(weightsFile)
		if err != nil {
			fatal(err)
		}
		if err := stonne.CheckWeights(m, w); err != nil {
			fatal(err)
		}
	} else {
		w = stonne.InitWeights(m, seed)
		if err := w.Prune(m.Sparsity); err != nil {
			fatal(err)
		}
	}
	return m, w, stonne.RandomInput(m, seed+1)
}

// runModelCmd runs a full model from a description file, layer by layer.
func runModelCmd(hw stonne.Hardware, f *flags) {
	m, w, input := loadModelAndWeights(f.modelFile, f.weightsFile, f.seed)
	pol, err := sched.ParsePolicy(f.policy)
	if err != nil {
		fatal(err)
	}
	out, mr, err := stonne.RunModel(m, w, input, hw, &stonne.RunOptions{Policy: pol})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model %s on %s\n\n", m.Name, hw.Name)
	fmt.Printf("%-14s %-5s %10s %8s %12s\n", "layer", "op", "cycles", "util", "energy µJ")
	for _, r := range mr.Runs {
		fmt.Printf("%-14s %-5s %10d %7.1f%% %12.4f\n",
			r.Layer, r.Op, r.Cycles, 100*r.Utilization, r.TotalEnergy())
	}
	fmt.Printf("\ntotal: %d cycles, %.3f µJ, output shape %v\n",
		mr.TotalCycles(), mr.TotalEnergy(), out.Shape())
	if f.saveWeights != "" {
		if err := w.SaveFile(f.saveWeights); err != nil {
			fatal(err)
		}
	}
}

// runModelChipCmd runs -streams inferences of the model on a simulated
// chip of -cores cores sharing a banked DRAM, and prints the chip-level
// summary: per-core load, contention, makespan, and throughput.
func runModelChipCmd(hw stonne.Hardware, f *flags) {
	m, w, _ := loadModelAndWeights(f.modelFile, f.weightsFile, f.seed)
	pol, err := sched.ParsePolicy(f.policy)
	if err != nil {
		fatal(err)
	}
	inputs := make([]*stonne.Tensor, max(f.streams, 1))
	for i := range inputs {
		inputs[i] = stonne.RandomInput(m, f.seed+1+uint64(i))
	}
	copts := stonne.ChipOptions{Cores: f.cores, Placement: f.placement, Banks: f.banks}
	if f.progress {
		board := simpool.NewBoard()
		copts.Progress = func(core, stream, stage int, endCycle uint64) {
			board.Update(fmt.Sprintf("core%d", core), endCycle, stream+1, 0, 0)
			fmt.Fprintf(os.Stderr, "\r%s", board.Summary())
		}
		defer fmt.Fprintln(os.Stderr)
	}
	outs, cr, err := stonne.RunModelChip(context.Background(), m, w, inputs, hw, copts, &stonne.RunOptions{Policy: pol})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model %s on %d× %s (%s placement, %d banks, %d streams)\n\n",
		m.Name, cr.Cores, hw.Name, cr.Placement, cr.Banks, cr.Streams)
	fmt.Printf("%-6s %12s %8s %12s\n", "core", "cycles", "util", "energy µJ")
	for i, r := range cr.PerCore {
		fmt.Printf("core%-2d %12d %7.1f%% %12.4f\n", i, r.Cycles, 100*r.Utilization, r.TotalEnergy())
	}
	fmt.Printf("\nmakespan: %d cycles (serial work %d, icn wait %d)\n",
		cr.MakespanCycles, cr.Total.Cycles, cr.ICNWaitCycles())
	fmt.Printf("throughput: %.3f streams/Mcycle, output shape %v\n",
		cr.Throughput(), outs[0].Shape())
}

// runTrainCmd runs SGD steps with every GEMM simulated on the accelerator.
func runTrainCmd(hw stonne.Hardware, f *flags) {
	m, w, input := loadModelAndWeights(f.modelFile, f.weightsFile, f.seed)
	fmt.Printf("training %s on %s (label %d, lr %g)\n\n", m.Name, hw.Name, f.label, f.lr)
	for step := 0; step < f.steps; step++ {
		res, err := stonne.RunTrainingStep(m, w, input, f.label, hw)
		if err != nil {
			fatal(err)
		}
		if err := stonne.ApplySGD(w, res.Grads, f.lr); err != nil {
			fatal(err)
		}
		fmt.Printf("step %2d: loss %.4f, %d simulated GEMMs, %d cycles\n",
			step, res.Loss, len(res.Stats.Runs), res.Stats.TotalCycles())
	}
	if f.saveWeights != "" {
		if err := w.SaveFile(f.saveWeights); err != nil {
			fatal(err)
		}
		fmt.Printf("weights saved to %s\n", f.saveWeights)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: stonne <gemm|conv|spmm|model|train> [flags]
       stonne -list-archs
run "stonne gemm -h" for the flag list`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stonne:", err)
	os.Exit(1)
}
