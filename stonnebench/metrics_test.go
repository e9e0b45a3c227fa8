package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric or workload name: a letter
// or digit followed by at most 63 letters, digits, '_', '.' or '-'.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s is a legal unit string.
func validUnit(s string) bool { return unitRE.MatchString(s) }

func TestMetricNameGrammar(t *testing.T) {
	good := []string{"setup_s", "engine.maeri_gemm.ns_per_cycle", "tablev.maeri-1.err_pct", "9lives", strings.Repeat("a", 64)}
	bad := []string{"", "_x", ".x", "-x", "a b", "a/b", "é", "x:y", strings.Repeat("a", 65)}
	for _, n := range good {
		if !validName(n) {
			t.Errorf("validName(%q) = false, want true", n)
		}
	}
	for _, n := range bad {
		if validName(n) {
			t.Errorf("validName(%q) = true, want false", n)
		}
	}
	for _, u := range []string{"ms", "s", "1/s", "%", "cycles/s", "count"} {
		if !validUnit(u) {
			t.Errorf("validUnit(%q) = false", u)
		}
	}
	for _, u := range []string{"", "µs", "a b", strings.Repeat("u", 17)} {
		if validUnit(u) {
			t.Errorf("validUnit(%q) = true", u)
		}
	}

	seen := map[string]bool{}
	all := append(append([]metric(nil), endToEnd...), perLayer()...)
	for _, m := range all {
		if !validName(m.Name) || !validUnit(m.Unit) {
			t.Errorf("metric %q unit %q breaks the grammar", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %q: better %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %q defined twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(endToEnd) > 16 || len(perLayer()) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16/128", len(endToEnd), len(perLayer()))
	}
	for name := range workloads {
		if !validName(name) {
			t.Errorf("workload %q breaks the grammar", name)
		}
	}
}

// TestBenchmarkJSONMatchesCode pins the declared workloads and metrics to
// the ones the command prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var declared, defined []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for name := range workloads {
		defined = append(defined, name)
	}
	sort.Strings(declared)
	sort.Strings(defined)
	if strings.Join(declared, ",") != strings.Join(defined, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", declared, defined)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	xs := seq(50)
	for _, c := range []struct{ p, want float64 }{{0.5, 25}, {0.99, 50}, {0.02, 1}, {0.021, 2}, {1, 50}} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("nearestRank(1..50, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := nearestRank(seq(100), 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", got)
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("empty input should give NaN")
	}
}

func TestTailKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		value     float64
		pct       float64
		beyond    int
		supported bool
	}{
		{1000, 990, 0.99, 10, true},  // p99 itself has exactly ten beyond
		{2000, 1980, 0.99, 20, true}, // more samples: p99 unchanged
		{500, 490, 0.98, 10, true},   // too few for p99: highest with ten beyond
		{11, 1, 1.0 / 11, 10, true},
		{10, 10, 1, 0, false}, // no percentile has ten beyond: nearest-rank p99, flagged
	} {
		got := tailOf(seq(c.n), 0.99)
		if got.Value != c.value || math.Abs(got.Pct-c.pct) > 1e-12 || got.Beyond != c.beyond || got.Supported != c.supported || got.N != c.n {
			t.Errorf("n=%d: %+v, want value %g pct %g beyond %d supported %v", c.n, got, c.value, c.pct, c.beyond, c.supported)
		}
	}
}

func TestMetricsForRequiresEveryEndToEnd(t *testing.T) {
	r := newReport()
	for _, m := range endToEnd {
		r.e2e[m.Name] = 1
	}
	if _, err := r.metricsFor(false); err != nil {
		t.Fatal(err)
	}
	r.e2e["throughput_rps"] = 0
	if _, err := r.metricsFor(false); err == nil {
		t.Error("a zero end-to-end metric was accepted")
	}
	delete(r.e2e, "throughput_rps")
	if _, err := r.metricsFor(false); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	out, err := r.metricsFor(true)
	if err != nil || len(out) != len(perLayer()) {
		t.Errorf("traced metrics: %d of %d, err %v", len(out), len(perLayer()), err)
	}
}
