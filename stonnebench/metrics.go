package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// metric is one named, unit-carrying number the benchmark reports.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd lists the metrics a user of the simulator or of stonned sees.
// Every workload reports every one of them (see README.md for what each
// means on each workload); all are measured with tracing off.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_cycles_per_s", "cycles/s", "higher"},
	{"throughput_rps", "1/s", "higher"},
	{"tablev_err_pct", "%", "lower"},
}

// Kernel classes of the kernels workload, in report order.
var kernelClasses = []string{
	"maeri_gemm", "maeri_conv", "sigma_gemm", "sigma_spmm",
	"tpu_gemm", "tpu_conv", "snapea_conv", "maeri_gemm_dram",
}

// Model tags and architectures of the model-chip workload.
var (
	modelTags  = []string{"M", "S"}
	modelArchs = []string{"maeri", "sigma", "tpu", "snapea"}
	tierNames  = []string{"dn", "mn", "rn", "mem"}
)

// perLayer lists the per-layer metrics a traced run reports. A layer the
// workload does not exercise reports 0.
func perLayer() []metric {
	var ms []metric
	add := func(name, unit, better string) { ms = append(ms, metric{name, unit, better}) }
	for _, c := range kernelClasses {
		add("engine."+c+".ns_per_cycle", "ns", "lower")
		add("engine."+c+".allocs_per_cycle", "count", "lower")
		add("engine."+c+".bytes_per_cycle", "B", "lower")
		add("engine."+c+".sim_cycles", "count", "lower")
	}
	for _, c := range kernelClasses {
		add("sim."+c+".ff_skipped_share", "ratio", "higher")
	}
	for _, t := range tierNames {
		add("tier."+t+".busy_share", "ratio", "higher")
		add("tier."+t+".stall_share", "ratio", "lower")
	}
	for _, row := range tableVRowNames() {
		add("tablev."+row+".err_pct", "%", "lower")
	}
	for _, m := range modelTags {
		for _, a := range modelArchs {
			add("stonne."+m+"."+a+".host_s", "s", "lower")
			add("stonne."+m+"."+a+".sim_cycles", "count", "lower")
		}
	}
	add("simpool.busy_share", "ratio", "higher")
	add("simpool.straggler_s", "s", "lower")
	add("chip.host_s", "s", "lower")
	add("chip.makespan_cycles", "count", "lower")
	add("chip.icn_wait_cycles", "count", "lower")
	add("chip.overlap", "ratio", "higher")
	for _, q := range []string{"queue", "sim", "overhead"} {
		add("serve."+q+"_ms_p50", "ms", "lower")
		add("serve."+q+"_ms_p99", "ms", "lower")
	}
	add("serve.warm_ratio", "ratio", "higher")
	add("serve.cold_runs", "count", "lower")
	add("serve.coalesced", "count", "higher")
	add("serve.rejected", "count", "lower")
	add("serve.failed", "count", "lower")
	add("cache.hit_ratio", "ratio", "higher")
	add("cache.evictions", "count", "lower")
	add("disk.hits", "count", "higher")
	add("disk.writes", "count", "lower")
	add("disk.evictions", "count", "lower")
	add("disk.corrupt", "count", "lower")
	add("cache.get_us_p50", "us", "lower")
	add("cache.put_us_p50", "us", "lower")
	add("disk.load_us_p50", "us", "lower")
	add("disk.save_us_p50", "us", "lower")
	add("jobkey.hash_us_p50", "us", "lower")
	add("slo_rps", "1/s", "higher")
	add("req_p50_ms", "ms", "lower")
	add("req_p99_ms", "ms", "lower")
	add("loadgen.sent", "count", "higher")
	add("loadgen.late_ms_p99", "ms", "lower")
	add("trace.overhead_pct", "%", "lower")
	add("fail_ratio", "ratio", "lower")
	return ms
}

// tableVRowNames are the Table V row labels as metric-name segments.
func tableVRowNames() []string {
	return []string{
		"maeri-1", "maeri-2", "maeri-3",
		"sigma-1", "sigma-2", "sigma-3", "sigma-4",
		"tpu-1", "tpu-2", "tpu-3", "tpu-4",
	}
}

// nearestRank returns the p-quantile (0 < p <= 1) of ascending xs by the
// nearest-rank rule: the ceil(p·n)-th smallest sample.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(p*float64(len(xs)) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > len(xs) {
		r = len(xs)
	}
	return xs[r-1]
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail is a tail-latency estimate with the sample accounting behind it.
type tail struct {
	Value     float64 `json:"value"`
	Pct       float64 `json:"pct"`       // percentile actually used, in (0,1]
	N         int     `json:"n"`         // samples
	Beyond    int     `json:"beyond"`    // samples strictly above the rank used
	Supported bool    `json:"supported"` // at least minBeyond samples beyond
}

// MarshalJSON writes a non-finite value (a tail made of failed requests)
// as null.
func (t tail) MarshalJSON() ([]byte, error) {
	type plain tail
	return json.Marshal(struct {
		plain
		Value any `json:"value"`
	}{plain(t), finite(t.Value)})
}

// finite returns x, or nil when x is NaN or infinite, for JSON output.
func finite(x float64) any {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return x
}

// finiteMap applies finite to every value of m.
func finiteMap(m map[string]float64) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = finite(v)
	}
	return out
}

// tailOf returns the highest percentile no greater than want that leaves at
// least minBeyond samples beyond its nearest rank. With too few samples for
// any such percentile it falls back to the nearest-rank want-quantile and
// marks the estimate unsupported. xs must be ascending.
func tailOf(xs []float64, want float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN(), Pct: want}
	}
	r := int(math.Ceil(want*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	supported := n-minBeyond >= 1
	if supported && r > n-minBeyond {
		r = n - minBeyond
	}
	if r > n {
		r = n
	}
	return tail{Value: xs[r-1], Pct: float64(r) / float64(n), N: n, Beyond: n - r, Supported: supported}
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the nearest-rank median of xs (unsorted input allowed).
func median(xs []float64) float64 { return nearestRank(sorted(xs), 0.5) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// report collects one run's metrics, checks and record fields.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failures  []string
	record    map[string]any
	rss       *rssWindows
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, record: map[string]any{}}
}

// timedEnd marks the end of the untraced timed phase. peak_rss_mb is
// taken over the one-second windows from process start to here: set-up
// and the timed phase, not the output checks and traced passes that follow.
func (r *report) timedEnd() {
	peaks := r.rss.finish()
	r.e2e["peak_rss_mb"] = nearestRank(sorted(peaks), peakRSSQuantile)
	r.record["rss_window_peaks_mb"] = peaks
}

// fail records a failed operation or output-check mismatch.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// metricValue is one entry of the printed metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricsFor returns the printed metrics: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one. A missing or
// non-finite end-to-end value is an error, since it would silently drop a
// bounded metric.
func (r *report) metricsFor(traced bool) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	if traced {
		for _, m := range perLayer() {
			v := r.layer[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			out[m.Name] = metricValue{v, m.Unit}
		}
		return out, nil
	}
	var bad []string
	for _, m := range endToEnd {
		v, ok := r.e2e[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			bad = append(bad, m.Name)
			continue
		}
		out[m.Name] = metricValue{v, m.Unit}
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("end-to-end metrics missing or not positive: %s", strings.Join(bad, ", "))
	}
	return out, nil
}
