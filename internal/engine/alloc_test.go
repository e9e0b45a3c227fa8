package engine

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// allocSlack bounds how far a run's allocation count may drift when its
// schedule grows. The append-grown queues (the controller's per-VN job
// queues, the RN output queue, the product scratch) settle at capacities
// set by how deep the pipeline runs, not by how long, so two schedule
// lengths can differ by a few doublings — while one allocation per work
// item would add hundreds.
const allocSlack = 32

// runAllocs is the mean number of heap allocations of one run.
func runAllocs(t *testing.T, run func() error) float64 {
	t.Helper()
	var err error
	n := testing.AllocsPerRun(3, func() {
		if e := run(); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFlexScheduleAllocsFlat pins the allocation-free schedule contract of
// the flexible fabric: quadrupling K quadruples the work items a MAERI
// GEMM, a MAERI convolution and a SIGMA SpMM stream through the fabric,
// yet each run allocates the same count — everything a run allocates is
// sized at construction, nothing per work item or per delivery.
func TestFlexScheduleAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	maeri := config.MAERILike(64, 16)
	maeri.Preloaded = true
	sigma := config.SIGMALike(64, 16)
	sigma.Preloaded = true
	// Each K keeps the mapper's tile fixed across the pair: the GEMM's
	// starts at the fabric width (one full K slice per fold), the
	// convolution's K counts filters.
	cases := []struct {
		name string
		hw   config.Hardware
		k    int
		run  func(acc *Accelerator, k int) error
	}{
		{"maeri-gemm", maeri, 64, func(acc *Accelerator, k int) error {
			_, _, err := acc.RunGEMM(randTensor(1, 12, k), randTensor(2, k, 10), "alloc")
			return err
		}},
		{"maeri-conv", maeri, 16, func(acc *Accelerator, k int) error {
			cs := tensor.ConvShape{R: 3, S: 3, C: 4, G: 1, K: k, N: 1, X: 8, Y: 8, Stride: 1, Padding: 1}
			_, _, err := acc.RunConv(randTensor(3, 1, 4, 8, 8), randTensor(4, k, 4, 3, 3), cs, "alloc")
			return err
		}},
		{"sigma-spmm", sigma, 16, func(acc *Accelerator, k int) error {
			A := randTensor(5, 6, k)
			for i, d := 0, A.Data(); i < len(d); i++ {
				if i%3 == 0 {
					d[i] = 0
				}
			}
			pol := sched.NS
			_, _, err := acc.RunSpMM(A, randTensor(6, k, 24), "alloc", &pol)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			acc, err := New(tc.hw)
			if err != nil {
				t.Fatal(err)
			}
			k := tc.k
			small := runAllocs(t, func() error { return tc.run(acc, k) })
			large := runAllocs(t, func() error { return tc.run(acc, 4*k) })
			t.Logf("%s: %.0f allocs at K=%d, %.0f at K=%d", tc.name, small, k, large, 4*k)
			if large > small+allocSlack || large < small-allocSlack {
				t.Errorf("allocations grow with the schedule: %.0f at K=%d, %.0f at K=%d (slack %d)",
					small, k, large, 4*k, allocSlack)
			}
		})
	}
}
