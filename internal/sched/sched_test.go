package sched

import (
	"strings"
	"testing"
	"testing/quick"
)

// checkCoverage verifies every non-zero element of every filter is mapped
// exactly once and no round exceeds capacity.
func checkCoverage(t *testing.T, nnz []int, rounds []Round, capacity int) {
	t.Helper()
	covered := map[int][]bool{}
	for row, n := range nnz {
		covered[row] = make([]bool, n)
	}
	for ri, r := range rounds {
		used := 0
		for _, c := range r {
			used += c.Len
			for i := c.Start; i < c.Start+c.Len; i++ {
				if covered[c.Row][i] {
					t.Fatalf("round %d: element (%d,%d) mapped twice", ri, c.Row, i)
				}
				covered[c.Row][i] = true
			}
			if c.Final != (c.Start+c.Len == nnz[c.Row]) {
				t.Fatalf("round %d: chunk %+v Final flag wrong (nnz %d)", ri, c, nnz[c.Row])
			}
		}
		if used > capacity {
			t.Fatalf("round %d uses %d > capacity %d", ri, used, capacity)
		}
	}
	for row, cov := range covered {
		for i, ok := range cov {
			if !ok {
				t.Fatalf("element (%d,%d) never mapped", row, i)
			}
		}
	}
}

func TestPackPolicies(t *testing.T) {
	nnz := []int{4, 2, 4, 2}
	for _, pol := range []Policy{NS, RDM, LFF} {
		rounds := Pack(nnz, 8, pol, 1)
		checkCoverage(t, nnz, rounds, 8)
	}
}

func TestFig8Example(t *testing.T) {
	// The paper's worked example: filters 4,2,4,2 on 8 switches with a
	// 4-elements/cycle stream: NS needs 4 cycles, LFF 3.
	nnz := []int{4, 2, 4, 2}
	cycles := func(rounds []Round) int {
		total := 0
		for _, r := range rounds {
			used := 0
			for _, c := range r {
				used += c.Len
			}
			total += (used + 3) / 4
		}
		return total
	}
	ns := Pack(nnz, 8, NS, 0)
	lff := Pack(nnz, 8, LFF, 0)
	if got := cycles(ns); got != 4 {
		t.Errorf("NS cycles = %d, want 4", got)
	}
	if got := cycles(lff); got != 3 {
		t.Errorf("LFF cycles = %d, want 3", got)
	}
}

func TestOversizeFolding(t *testing.T) {
	nnz := []int{20, 3}
	for _, pol := range []Policy{NS, LFF} {
		rounds := Pack(nnz, 8, pol, 0)
		checkCoverage(t, nnz, rounds, 8)
	}
}

func TestZeroFiltersSkipped(t *testing.T) {
	rounds := Pack([]int{0, 5, 0, 3}, 8, NS, 0)
	checkCoverage(t, []int{0, 5, 0, 3}, rounds, 8)
	if len(rounds) != 1 {
		t.Errorf("rounds = %d", len(rounds))
	}
}

// TestLFFBetterOnAverageProperty pins what the paper actually claims for
// LFF: an average improvement, not a per-instance guarantee. Largest-first
// greedy packing is subject to the classic first-fit-decreasing anomaly —
// nnz [14 6 43 10 17 9 26] at capacity 64 packs in 2 rounds sequentially
// but 3 rounds largest-first — so the old "LFF never worse than NS"
// property was false, and because testing/quick's nil Rand is time-seeded
// it made the suite flaky: a counterexample surfaced roughly once per
// thousand runs. The instances are now a fixed deterministic corpus, each
// pinned to the sound per-instance bounds (a round count between the
// capacity lower bound and the 2·lb+1 greedy guarantee), with the paper's
// claim asserted in aggregate across the corpus.
func TestLFFBetterOnAverageProperty(t *testing.T) {
	const capacity = 64
	var nsTotal, lffTotal int
	for seed := int64(0); seed < 300; seed++ {
		s := uint64(seed)*2654435761 + 3
		next := func(m int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int(s % uint64(m))
		}
		nnz := make([]int, 5+next(20))
		total := 0
		for i := range nnz {
			nnz[i] = 1 + next(capacity)
			total += nnz[i]
		}
		lb := (total + capacity - 1) / capacity
		ns := Pack(nnz, capacity, NS, 0)
		lff := Pack(nnz, capacity, LFF, 0)
		for _, got := range []struct {
			pol    string
			rounds int
		}{{"NS", len(ns)}, {"LFF", len(lff)}} {
			if got.rounds < lb || got.rounds > 2*lb+1 {
				t.Errorf("seed %d: %s rounds %d outside [lb, 2·lb+1] = [%d, %d] (nnz %v)",
					seed, got.pol, got.rounds, lb, 2*lb+1, nnz)
			}
		}
		nsTotal += len(ns)
		lffTotal += len(lff)
	}
	if lffTotal > nsTotal {
		t.Errorf("LFF used %d rounds across the corpus vs NS's %d — no aggregate gain", lffTotal, nsTotal)
	}
}

// Property: every policy yields a valid exact cover of the non-zeros.
func TestPackCoverageProperty(t *testing.T) {
	f := func(seed int64, polPick uint8) bool {
		s := uint64(seed)*0x9e3779b97f4a7c15 + 11
		next := func(m int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int(s % uint64(m))
		}
		capacity := 8 + next(120)
		nnz := make([]int, 1+next(30))
		total := 0
		for i := range nnz {
			nnz[i] = next(3 * capacity) // includes zero and oversize
			total += nnz[i]
		}
		rounds := Pack(nnz, capacity, Policy(int(polPick)%3), uint64(seed))
		mapped := 0
		seen := map[[2]int]bool{}
		for _, r := range rounds {
			used := 0
			for _, c := range r {
				used += c.Len
				mapped += c.Len
				key := [2]int{c.Row, c.Start}
				if seen[key] {
					return false
				}
				seen[key] = true
			}
			if used > capacity {
				return false
			}
		}
		return mapped == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRDMIsDeterministicPerSeed(t *testing.T) {
	nnz := []int{5, 9, 2, 7, 1, 8}
	a := Pack(nnz, 16, RDM, 42)
	b := Pack(nnz, 16, RDM, 42)
	if len(a) != len(b) {
		t.Fatal("same seed produced different round counts")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("same seed produced different rounds")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same seed produced different chunks")
			}
		}
	}
}

func TestUtilizationAndFiltersPerRound(t *testing.T) {
	rounds := Pack([]int{4, 4}, 8, NS, 0)
	if u := Utilization(rounds, 8); u != 1.0 {
		t.Errorf("utilization %v", u)
	}
	if f := FiltersPerRound(rounds); f != 2.0 {
		t.Errorf("filters/round %v", f)
	}
	if Utilization(nil, 8) != 0 || FiltersPerRound(nil) != 0 {
		t.Error("empty rounds not handled")
	}
}

// Degenerate inputs: a fabric without capacity yields no rounds and zero
// metrics rather than dividing by zero or looping forever.
func TestDegenerateCapacityAndInputs(t *testing.T) {
	for _, capacity := range []int{0, -8} {
		for _, pol := range []Policy{NS, RDM, LFF} {
			if rounds := Pack([]int{3, 1, 4}, capacity, pol, 7); rounds != nil {
				t.Errorf("Pack(capacity=%d, %v) = %v, want nil", capacity, pol, rounds)
			}
		}
		if u := Utilization([]Round{{{Row: 0, Len: 4, Final: true}}}, capacity); u != 0 {
			t.Errorf("Utilization(capacity=%d) = %v, want 0", capacity, u)
		}
	}
	for _, pol := range []Policy{NS, RDM, LFF} {
		if rounds := Pack(nil, 8, pol, 0); len(rounds) != 0 {
			t.Errorf("Pack(empty nnz) = %v", rounds)
		}
		if rounds := Pack([]int{0, 0, 0}, 8, pol, 0); len(rounds) != 0 {
			t.Errorf("Pack(all-zero nnz, %v) = %v", pol, rounds)
		}
	}
	if u := Utilization(nil, 8); u != 0 {
		t.Errorf("Utilization(no rounds) = %v", u)
	}
	if f := FiltersPerRound(nil); f != 0 {
		t.Errorf("FiltersPerRound(no rounds) = %v", f)
	}
}

func TestPolicyString(t *testing.T) {
	if NS.String() != "NS" || RDM.String() != "RDM" || LFF.String() != "LFF" {
		t.Error("policy strings wrong")
	}
}

// TestParsePolicy pins ParsePolicy as the inverse of String, in any case,
// with "" meaning NS and junk rejected.
func TestParsePolicy(t *testing.T) {
	for _, pol := range []Policy{NS, RDM, LFF} {
		for _, spelling := range []string{pol.String(), strings.ToLower(pol.String()), " " + pol.String() + " "} {
			got, err := ParsePolicy(spelling)
			if err != nil || got != pol {
				t.Errorf("ParsePolicy(%q) = %v, %v; want %v", spelling, got, err, pol)
			}
		}
	}
	if got, err := ParsePolicy(""); err != nil || got != NS {
		t.Errorf(`ParsePolicy("") = %v, %v; want NS`, got, err)
	}
	for _, junk := range []string{"FIFO", "L F F", "Policy(?)", "0"} {
		if _, err := ParsePolicy(junk); err == nil {
			t.Errorf("ParsePolicy(%q) accepted junk", junk)
		}
	}
}
