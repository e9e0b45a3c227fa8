// Command stonnebench is the repository's benchmark: one seeded command
// that drives the STONNE simulator and its stonned service from outside,
// through their public entry points, and prints every metric by name with
// its unit. See README.md for the workloads and metrics.
//
//	bash stonnebench/run.sh --workload kernels --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, measured untraced; with --trace 1 they are the
// per-layer ones, from a traced run made next to an untraced one. A
// detailed run record (and, when traced, a span dump) is written under -out.
// The command exits non-zero when any output check fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart approximates the process start for setup_s.
var processStart = time.Now()

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	workers int // GOMAXPROCS, simpool workers, server workers and connections
	outDir  string
}

var workloads = map[string]func(cfg runConfig, rep *report) error{
	"kernels":     runKernels,
	"model-chip":  runModelChip,
	"serve-warm":  runServeWarm,
	"serve-churn": runServeChurn,
}

func main() {
	workload := flag.String("workload", "", "kernels, model-chip, serve-warm or serve-churn")
	seed := flag.Uint64("seed", 1, "input seed: shapes, operands, arrivals and popularity")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/results", "directory for run records and span dumps")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "stonnebench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	workers := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(workers)
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, workers: workers, outDir: *out}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "stonnebench:", err)
		os.Exit(2)
	}

	rep := newReport()
	rep.rss = startRSSWindows()
	if err := run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "stonnebench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	failed := len(rep.failures)
	if rep.attempted < 1 {
		rep.attempted = 1
	}
	rep.layer["fail_ratio"] = float64(failed) / float64(rep.attempted)
	metrics, err := rep.metricsFor(cfg.traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stonnebench:", err)
		os.Exit(1)
	}

	record := map[string]any{
		"workload": *workload, "seed": cfg.seed, "seconds": cfg.seconds, "traced": cfg.traced,
		"host":      hostInfo(workers),
		"attempted": rep.attempted, "failed": failed, "failures": rep.failures,
		"end_to_end": finiteMap(rep.e2e), "per_layer": finiteMap(rep.layer), "detail": rep.record,
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", *workload, cfg.seed, *traceFlag)
	if err := writeJSONFile(filepath.Join(cfg.outDir, name), record); err != nil {
		fmt.Fprintln(os.Stderr, "stonnebench: run record:", err)
		os.Exit(1)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "stonnebench: FAIL:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0, rep.attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stonnebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if failed > 0 {
		os.Exit(1)
	}
}

// hostInfo is the run record's description of where and how it ran.
func hostInfo(workers int) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
		"conns":      workers,
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     os.Getenv("STONNEBENCH_COMMIT"),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// splitmix is the benchmark's seeded generator for every input it makes.
type splitmix struct{ s uint64 }

func newRNG(seed uint64, stream string) *splitmix {
	h := seed ^ 0x5bd1e9955bd1e995
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return &splitmix{s: h}
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (r *splitmix) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// pick returns one element of xs.
func pick[T any](r *splitmix, xs []T) T { return xs[r.intn(len(xs))] }

// exp returns an exponentially distributed value with mean 1.
func (r *splitmix) exp() float64 { return -math.Log(1 - r.float64()) }

// normal returns a standard normal value (Box-Muller).
func (r *splitmix) normal() float64 {
	u1, u2 := 1-r.float64(), r.float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^s by inverting the
// cumulative distribution.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipf) draw(r *splitmix) int {
	u := r.float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
