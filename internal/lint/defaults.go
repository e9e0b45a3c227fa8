package lint

// DefaultExtraRoots is the repository's hot-leaf configuration for
// hotpathalloc: per-cycle functions invoked from another package's tick
// loop, which the structural root detection (Cycle/Next/Consume, Kernel
// hooks) cannot see from inside their own package.
func DefaultExtraRoots() map[string][]string {
	return map[string][]string{
		// The engine controllers call these once per element / per barrier
		// cycle from ctrlCycle and Consume.
		"repro/internal/mem": {
			"GlobalBuffer.Read",
			"GlobalBuffer.Write",
			"DRAM.BeginPrefetch",
			"DRAM.StallCycles",
			"DRAM.StallLookahead",
			"DRAM.AdvanceStall",
			// The chip interconnect: CorePort stands in for DRAM on every
			// multi-core tick path, and each of its transfers grants through
			// SharedDRAM.Serve.
			"SharedDRAM.Serve",
			"CorePort.FetchCycles",
			"CorePort.BeginPrefetch",
			"CorePort.StallCycles",
			"CorePort.StallLookahead",
			"CorePort.AdvanceStall",
		},
		// Fired from the controller's per-cycle VN scan and from the DN's
		// per-cycle delivery sink/prober callbacks.
		"repro/internal/mn": {
			"Array.AppendPop",
			"Array.ReadyVN",
			"Array.ReadyMembers",
			"Array.Deliver",
			"Array.CanDeliver",
			"Array.QuiescentSet",
			"Array.Idle",
			"Array.VNs",
		},
		// Offered work and completion probes, once per controller cycle.
		"repro/internal/rn": {
			"Net.Offer",
			"Net.CanAccept",
			"Net.Drained",
			"Net.HasAccumulator",
		},
		// Every DN kind inherits its injection path from the embedded base,
		// and roots match the declared receiver.
		"repro/internal/dn": {
			"base.Offer",
			"base.Pending",
		},
	}
}

// DefaultWallClockPackages lists the simulation and result-producing
// packages where wall-clock reads are banned (subpackages and _test
// variants included). The serve layer measures request latency on purpose
// and is deliberately absent: latency is an envelope field, never part of
// the cached result bytes.
func DefaultWallClockPackages() []string {
	return []string{
		"repro/internal/sim",
		"repro/internal/engine",
		"repro/internal/mem",
		"repro/internal/trace",
		"repro/internal/stats",
		"repro/internal/jobkey",
		"repro/internal/energy",
		"repro/internal/comp",
		"repro/internal/dn",
		"repro/internal/mn",
		"repro/internal/rn",
	}
}

// DefaultAnalyzers is the stonnelint suite: the five PR 5 invariant checks
// plus the five determinism/concurrency checks distilled from the bug
// classes the serving layer surfaced (PRs 8–9), in the order their
// invariants were introduced.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		HotPathAlloc(DefaultExtraRoots()),
		CounterNames(),
		FloatCmp(),
		RegistryContract(),
		GlobalRand(),
		MapOrder(),
		WallClock(DefaultWallClockPackages()),
		MutexHeld(),
		CtxCancel(),
		AtomicMix(),
	}
}
