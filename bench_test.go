// Package repro's benchmark suite regenerates every table and figure of
// the paper's evaluation as testing.B benchmarks, plus ablation benches
// for the design choices DESIGN.md calls out. Each benchmark reports the
// headline metric of its figure via b.ReportMetric so `go test -bench=.`
// reproduces the numbers EXPERIMENTS.md records.
//
// Workloads use the documented 1/16 spatial scale so a full -bench=. run
// completes in minutes; cmd/experiments runs the larger-scale versions.
package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/stonne"
)

const benchScale = 16

// --- Table V -----------------------------------------------------------

// BenchmarkTableV runs the eleven RTL-validation microbenchmarks and
// reports the mean absolute cycle error against the published counts.
func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, avg, err := exp.TableVRun(context.Background(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(avg*100, "%avg-err-vs-RTL")
	}
}

// --- Figure 1 ----------------------------------------------------------

func benchFig1(b *testing.B, f func(context.Context, int, int) ([]exp.Fig1Row, error)) {
	for i := 0; i < b.N; i++ {
		rows, err := f(context.Background(), 1, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		worst, sum := 0.0, 0.0
		for _, r := range rows {
			ratio := r.RatioSTOverAM()
			sum += ratio
			if ratio > worst {
				worst = ratio
			}
		}
		b.ReportMetric(worst, "max-ST/AM")
		b.ReportMetric(sum/float64(len(rows)), "mean-ST/AM")
	}
}

func BenchmarkFig1aSystolicVsAnalytical(b *testing.B) { benchFig1(b, exp.Fig1a) }
func BenchmarkFig1bMAERIBandwidth(b *testing.B)       { benchFig1(b, exp.Fig1b) }
func BenchmarkFig1cSIGMASparsity(b *testing.B)        { benchFig1(b, exp.Fig1c) }

// --- Figure 5 ----------------------------------------------------------

// BenchmarkFig5 runs the use-case-1 comparison on three representative
// models and reports the headline speedups.
func BenchmarkFig5AccelComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig5(context.Background(), 1, benchScale, []string{"M", "S", "A"})
		if err != nil {
			b.Fatal(err)
		}
		agg := map[string]uint64{}
		for _, r := range rows {
			agg[r.Arch] += r.Cycles
		}
		b.ReportMetric(float64(agg["TPU-like"])/float64(agg["MAERI-like"]), "maeri-vs-tpu-x")
		b.ReportMetric(float64(agg["MAERI-like"])/float64(agg["SIGMA-like"]), "sigma-vs-maeri-x")
	}
}

// BenchmarkFig5Parallel times the same use-case-1 comparison fanned over
// the simpool at GOMAXPROCS workers and reports the wall-clock speedup
// against a serial (workers=1) run measured in the same invocation. On a
// single-core host both paths take the same time (speedup ≈ 1); the
// parallel win appears with ≥4 cores.
func BenchmarkFig5Parallel(b *testing.B) {
	ctx := context.Background()
	tags := []string{"M", "S", "A"}
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := exp.Fig5(ctx, 1, benchScale, tags); err != nil {
			b.Fatal(err)
		}
		serial := time.Since(t0)
		t0 = time.Now()
		if _, err := exp.Fig5(ctx, 0, benchScale, tags); err != nil {
			b.Fatal(err)
		}
		par := time.Since(t0)
		b.ReportMetric(serial.Seconds()/par.Seconds(), "speedup-vs-serial")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	}
}

// --- Figure 6 ----------------------------------------------------------

func BenchmarkFig6SNAPEA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig6(context.Background(), 1, benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		var sp float64
		for _, r := range rows {
			sp += r.Speedup
		}
		b.ReportMetric(sp/float64(len(rows)), "avg-speedup-x")
	}
}

// --- Figure 7 ----------------------------------------------------------

func BenchmarkFig7FilterMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, _, err := exp.Fig7(context.Background(), 1, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		var avg float64
		for _, r := range a {
			avg += r.AvgFilters
		}
		b.ReportMetric(avg/float64(len(a)), "avg-filters-per-round")
	}
}

// --- Figure 9 ----------------------------------------------------------

func BenchmarkFig9Scheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig9(context.Background(), 1, benchScale, []string{"S", "R", "V"})
		if err != nil {
			b.Fatal(err)
		}
		var lff float64
		var n int
		for _, r := range rows {
			if r.Policy == "LFF" {
				lff += r.NormRuntime
				n++
			}
		}
		b.ReportMetric(lff/float64(n), "lff-norm-runtime")
	}
}

func BenchmarkFig9cResNetSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig9c(context.Background(), 1, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		b.ReportMetric(rows[0].NormRuntime, "best-layer-norm-runtime")
	}
}

// --- Multi-core chip scaling --------------------------------------------

// BenchmarkMulticoreScaling runs the chip scaling sweep (1/2/4 cores ×
// layer/batch placement, MobileNets, 8 streams) and reports each
// configuration's inference throughput plus the 4-core speedups — the
// snapshot metric pinning that chip composition actually overlaps work
// under both placement policies.
func BenchmarkMulticoreScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Multicore(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Throughput, fmt.Sprintf("%s-x%d-str/Mcyc", r.Placement, r.Cores))
			if r.Cores == exp.MulticoreCores[len(exp.MulticoreCores)-1] {
				b.ReportMetric(r.Speedup, r.Placement+"-x4-speedup")
				b.ReportMetric(float64(r.ICNWaitCycles), r.Placement+"-x4-icn-wait")
			}
		}
	}
}

// --- Raw engine benchmarks (cycles/sec of simulation throughput) --------

func benchEngineGEMM(b *testing.B, hw config.Hardware, m, n, k int) {
	hw.Preloaded = true
	acc, err := engine.New(hw)
	if err != nil {
		b.Fatal(err)
	}
	rng := dnn.NewRNG(1)
	A := tensor.New(m, k)
	B := tensor.New(k, n)
	for _, d := range [][]float32{A.Data(), B.Data()} {
		for i := range d {
			d[i] = float32(rng.Normal())
		}
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		_, run, err := acc.RunGEMM(A, B, "bench")
		if err != nil {
			b.Fatal(err)
		}
		cycles = run.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkEngineTPU64x64x64(b *testing.B) {
	benchEngineGEMM(b, config.TPULike(256), 64, 64, 64)
}

func BenchmarkEngineMAERI64x64x64(b *testing.B) {
	benchEngineGEMM(b, config.MAERILike(256, 128), 64, 64, 64)
}

func BenchmarkEngineSIGMA64x64x64(b *testing.B) {
	benchEngineGEMM(b, config.SIGMALike(256, 128), 64, 64, 64)
}

// BenchmarkTraceOverhead runs the same MAERI GEMM untraced and traced: the
// "off" case pins the zero-overhead-when-disabled guarantee (a nil recorder
// costs one pointer check per run), the "on" case measures the per-cycle
// attribution cost of the enabled recorder.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		traced bool
	}{
		{"off", false},
		{"on", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			hw := config.MAERILike(256, 128)
			hw.Preloaded = true
			if cfg.traced {
				hw.Trace = &trace.Config{}
			}
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			rng := dnn.NewRNG(9)
			A := tensor.New(64, 64)
			B := tensor.New(64, 64)
			for _, d := range [][]float32{A.Data(), B.Data()} {
				for i := range d {
					d[i] = float32(rng.Normal())
				}
			}
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunGEMM(A, B, "bench")
				if err != nil {
					b.Fatal(err)
				}
				cycles = run.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkFastForward pins the event-driven fast-forward win on the
// workload it targets: a MAERI GEMM with DRAM throttled to a trickle, so
// fold-barrier prefetch stalls dominate the simulated time. The "ticked"
// case forces the per-cycle loop (-fastforward=false); "fastforward" lets
// the kernel jump the provably-idle stall windows. Both simulate exactly the
// same cycle count (asserted by TestFastForwardTickedParity); only the
// wall-clock differs.
func BenchmarkFastForward(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		disable bool
	}{
		{"ticked", true},
		{"fastforward", false},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			hw := config.MAERILike(128, 64)
			hw.Preloaded = true
			hw.DRAM.BandwidthGBs = 0.25 // trickle DRAM: fetch swamps compute
			hw.DRAM.Modules = 1
			hw.DisableFastForward = cfg.disable
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			rng := dnn.NewRNG(10)
			// Deep K, small M×N: one starved weight prefetch per fold with
			// little streaming to hide it — ~93% of the simulated cycles are
			// provably-idle barrier stalls.
			A := tensor.New(16, 4096)
			B := tensor.New(4096, 16)
			for _, d := range [][]float32{A.Data(), B.Data()} {
				for i := range d {
					d[i] = float32(rng.Normal())
				}
			}
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunGEMM(A, B, "bench")
				if err != nil {
					b.Fatal(err)
				}
				cycles = run.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// --- Ablations ----------------------------------------------------------

// BenchmarkAblationFIFODepth sweeps the operand FIFO depth: deeper FIFOs
// let delivery run further ahead of compute and absorb reduction stalls.
func BenchmarkAblationFIFODepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8, 16} {
		b.Run(depthName(depth), func(b *testing.B) {
			hw := config.MAERILike(128, 32)
			hw.FIFODepth = depth
			hw.Preloaded = true
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			rng := dnn.NewRNG(2)
			A := tensor.New(32, 256)
			B := tensor.New(256, 32)
			for _, d := range [][]float32{A.Data(), B.Data()} {
				for i := range d {
					d[i] = float32(rng.Normal())
				}
			}
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunGEMM(A, B, "ablation")
				if err != nil {
					b.Fatal(err)
				}
				cycles = run.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationRN compares the reduction networks (ART+ACC vs plain
// ART, whose fold partials round-trip through the output ports).
func BenchmarkAblationRN(b *testing.B) {
	for _, cfg := range []struct {
		name string
		rn   config.RNType
		acc  bool
	}{
		{"ART+ACC", config.ARTAccRN, true},
		{"ART", config.ARTRN, false},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			hw := config.MAERILike(128, 64)
			hw.RN = cfg.rn
			hw.AccumulationBuffer = cfg.acc
			hw.Preloaded = true
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			rng := dnn.NewRNG(3)
			A := tensor.New(16, 512) // folds force accumulation traffic
			B := tensor.New(512, 16)
			for _, d := range [][]float32{A.Data(), B.Data()} {
				for i := range d {
					d[i] = float32(rng.Normal())
				}
			}
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunGEMM(A, B, "ablation")
				if err != nil {
					b.Fatal(err)
				}
				cycles = run.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationSparseFormat compares the bitmap and CSR sparse front
// formats — identical cycles, different metadata traffic.
func BenchmarkAblationSparseFormat(b *testing.B) {
	for _, cfg := range []struct {
		name string
		f    config.SparseFmt
	}{
		{"bitmap", config.FmtBitmap},
		{"csr", config.FmtCSR},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			hw := config.SIGMALike(128, 128)
			hw.SparseFormat = cfg.f
			hw.Preloaded = true
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			rng := dnn.NewRNG(4)
			A := tensor.New(64, 256)
			for i, d := 0, A.Data(); i < len(d); i++ {
				if rng.Float64() > 0.8 {
					d[i] = float32(rng.Normal())
				}
			}
			B := tensor.New(256, 32)
			for i, d := 0, B.Data(); i < len(d); i++ {
				d[i] = float32(rng.Normal())
			}
			b.ResetTimer()
			var meta uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunSpMM(A, B, "ablation", nil)
				if err != nil {
					b.Fatal(err)
				}
				meta = run.Counters["gb.meta_reads"]
			}
			b.ReportMetric(float64(meta), "meta-reads")
		})
	}
}

// BenchmarkAblationForwarding toggles the Linear MN forwarding links for a
// convolution: identical cycles (injection is serialized either way), but
// the GB read and tree-wire energy drop with forwarding on.
func BenchmarkAblationForwarding(b *testing.B) {
	for _, cfg := range []struct {
		name string
		mn   config.MNType
	}{
		{"LMN", config.LinearMN},
		{"DMN-style", config.DisabledMN},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			hw := config.MAERILike(128, 32)
			hw.MN = cfg.mn
			hw.Preloaded = true
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			cs := tensor.ConvShape{R: 3, S: 3, C: 8, G: 1, K: 8, N: 1, X: 16, Y: 16, Stride: 1, Padding: 1}
			rng := dnn.NewRNG(5)
			in := tensor.New(1, cs.C, cs.X, cs.Y)
			w := tensor.New(cs.K, cs.C, cs.R, cs.S)
			for _, d := range [][]float32{in.Data(), w.Data()} {
				for i := range d {
					d[i] = float32(rng.Normal())
				}
			}
			b.ResetTimer()
			var reads uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunConv(in, w, cs, "ablation")
				if err != nil {
					b.Fatal(err)
				}
				reads = run.Counters["gb.reads"]
			}
			b.ReportMetric(float64(reads), "gb-reads")
		})
	}
}

// BenchmarkAblationPrefetch compares double-buffered DRAM prefetch against
// a cold start (Preloaded=false vs true on the same run).
func BenchmarkAblationPrefetch(b *testing.B) {
	for _, cfg := range []struct {
		name      string
		preloaded bool
	}{
		{"cold-dram", false},
		{"preloaded", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			hw := config.MAERILike(128, 64)
			hw.Preloaded = cfg.preloaded
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			rng := dnn.NewRNG(6)
			A := tensor.New(64, 128)
			B := tensor.New(128, 64)
			for _, d := range [][]float32{A.Data(), B.Data()} {
				for i := range d {
					d[i] = float32(rng.Normal())
				}
			}
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunGEMM(A, B, "ablation")
				if err != nil {
					b.Fatal(err)
				}
				cycles = run.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationDataflow pins the dense controller's stationary choice
// on a batch-1 fully-connected layer: forced weight-stationary reloads the
// stationary registers every fold with zero reuse, while the controller's
// automatic input-stationary choice streams the weights instead.
func BenchmarkAblationDataflow(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		df    config.Dataflow
		force bool
	}{
		{"auto", config.OutputStationary, false},
		{"forced-WS", config.WeightStationary, true},
		{"forced-IS", config.InputStationary, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			hw := config.MAERILike(128, 64)
			hw.Dataflow = cfg.df
			hw.ForceDataflow = cfg.force
			hw.Preloaded = true
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			rng := dnn.NewRNG(8)
			W := tensor.New(256, 512) // fc weights
			x := tensor.New(512, 1)   // batch-1 input column
			for _, d := range [][]float32{W.Data(), x.Data()} {
				for i := range d {
					d[i] = float32(rng.Normal())
				}
			}
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunGEMM(W, x, "ablation")
				if err != nil {
					b.Fatal(err)
				}
				cycles = run.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationSchedulingPolicies sweeps the three policies on one
// sparse layer (the kernel of Fig. 9).
func BenchmarkAblationSchedulingPolicies(b *testing.B) {
	for _, pol := range []sched.Policy{sched.NS, sched.RDM, sched.LFF} {
		b.Run(pol.String(), func(b *testing.B) {
			hw := config.SIGMALike(256, 128)
			hw.Preloaded = true
			acc, err := engine.New(hw)
			if err != nil {
				b.Fatal(err)
			}
			// High per-row variance, as trained-then-pruned filters have.
			rng := dnn.NewRNG(7)
			A := tensor.New(96, 256)
			d := A.Data()
			for r := 0; r < 96; r++ {
				density := 0.05 + 0.4*rng.Float64()
				for c := 0; c < 256; c++ {
					if rng.Float64() < density {
						d[r*256+c] = float32(rng.Normal())
					}
				}
			}
			B := tensor.New(256, 64)
			for i, bd := 0, B.Data(); i < len(bd); i++ {
				bd[i] = float32(rng.Normal())
			}
			p := pol
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, run, err := acc.RunSpMM(A, B, "ablation", &p)
				if err != nil {
					b.Fatal(err)
				}
				cycles = run.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// --- Full-model benchmark through the public API -------------------------

func BenchmarkFullModelQuickstart(b *testing.B) {
	model, err := stonne.ScaleSpatial(stonne.SqueezeNet(), benchScale)
	if err != nil {
		b.Fatal(err)
	}
	w := stonne.InitWeights(model, 1)
	if err := w.Prune(model.Sparsity); err != nil {
		b.Fatal(err)
	}
	input := stonne.RandomInput(model, 2)
	hw := stonne.MAERILike(128, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, mr, err := stonne.RunModel(model, w, input, hw, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(mr.TotalCycles()), "sim-cycles")
	}
}

func depthName(d int) string {
	return "depth-" + string(rune('0'+d/10)) + string(rune('0'+d%10))
}
