// Package sim is the architecture-independent simulation substrate the
// engine compositions are built on. It owns the three pieces every
// accelerator shares and none should re-implement:
//
//   - the per-run context (Ctx): activity counters, Global Buffer, DRAM
//     model and the initial-fill accounting — one private instance per run,
//     which is what makes whole runs embarrassingly parallel;
//   - the cycle kernel (Kernel): the canonical simulation loop that ticks
//     registered Tickable components in pipeline order, tracks progress and
//     aborts via the deadlock watchdog instead of spinning forever;
//   - the work vocabulary (WorkItem, JobSpec, Source, Sink): the schedule
//     stream a memory controller consumes, formalizing the duck-typed
//     pattern the GEMM, convolution and SIGMA schedulers all follow.
//
// On top of that, the package keeps the architecture registry: each
// accelerator composition registers a named builder, and everything above
// the engine — the public API, both CLIs, the experiment figures — resolves
// architectures by name instead of switching on controller types.
package sim

import (
	"repro/internal/comp"
	"repro/internal/dn"
	"repro/internal/rn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Tickable is any hardware module that advances one clock cycle at a time.
// The kernel ticks every registered Tickable once per simulated cycle, in
// registration (pipeline) order.
type Tickable interface {
	Cycle()
}

// Lookahead re-exports the fast-forward capability (comp.Lookahead) under
// the simulation vocabulary: a Tickable that also implements Lookahead lets
// the kernel skip provably-steady stretches of cycles in one jump instead
// of ticking through them. See Kernel.Run for the exactness contract.
type Lookahead = comp.Lookahead

// Unbounded mirrors comp.Unbounded: a Lookahead bound meaning "steady for
// any horizon".
const Unbounded = comp.Unbounded

// Runner is one built accelerator composition: it executes whole operations
// on the simulated fabric and returns the result with per-run statistics.
// Architecture-specific entry points (explicit tiles, scheduling policies,
// early-termination control) live on the concrete runner types; the
// Accelerator facade reaches them by type assertion.
type Runner interface {
	RunGEMM(A, B *tensor.Tensor, layer string) (*tensor.Tensor, *stats.Run, error)
	RunConv(in, w *tensor.Tensor, cs tensor.ConvShape, layer string) (*tensor.Tensor, *stats.Run, error)
}

// JobSpec describes one reduction the controller expects to fire: virtual
// neuron VN will have Expect products tagged with step Seq, reducing into
// output element OutIdx; Last marks the final fold of that output.
type JobSpec struct {
	VN, Seq, Expect, OutIdx int
	Last                    bool
	// Members, when non-nil, is the snapshot of the VN's switch set at
	// schedule time — required when cluster shapes change between rounds
	// (sparse controller). Nil falls back to the configured VN table.
	Members []int
}

// WorkItem is one schedulable unit: a weight (re)load or one compute step.
//
// Its slices follow the ownership contract of Source: ReloadSet,
// Deliveries and Jobs are scratch owned by the source, while each
// delivery's Dests and each job's Members point into destination tables
// that stay immutable for the source's lifetime.
type WorkItem struct {
	// Barrier requires the switches in ReloadSet to be quiescent (operand
	// FIFOs and psum latches empty) and the DN drained before issuing —
	// the stationary registers are about to be overwritten.
	Barrier   bool
	ReloadSet []int
	// Prefetch, when non-zero, starts a DRAM prefetch of that many
	// elements for the following block (double buffering).
	Prefetch   int
	Deliveries []dn.Delivery
	Jobs       []JobSpec
	// Reconfig, when non-nil, reprograms the VN membership once the
	// barrier has drained the fabric (sparse rounds change cluster shapes
	// between rounds). It requires full quiescence, not just the
	// ReloadSet.
	Reconfig func() error
}

// Source generates work items on demand so full-model runs never
// materialize their schedule up front. The dense GEMM, dense convolution
// and SIGMA sparse schedulers are all Sources driving the same controller.
//
// Ownership: a returned item's ReloadSet, Deliveries and Jobs slices are
// the source's scratch, pre-sized at construction and overwritten by the
// next call — they are valid only until then. A consumer that keeps any
// of them across Next calls must copy it (the controller copies
// deliveries into the DN queue and jobs into its per-VN queues before
// asking for the next item). The Dests of every delivery and the Members
// of every job are different: they point into destination tables the
// source builds once, at construction, and never mutates, so they may be
// held for the source's whole lifetime — the DN queue keeps them after
// the item that carried them is gone. Next therefore allocates nothing.
type Source interface {
	Next() (WorkItem, bool)
}

// Sink receives reduced results leaving the reduction network. The
// controller composition implements it to scatter values into the output
// tensor and account the Global Buffer write-back.
type Sink interface {
	Consume(rn.Result)
}
