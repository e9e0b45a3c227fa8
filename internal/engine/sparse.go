package engine

import (
	"fmt"

	"repro/internal/comp"
	"repro/internal/comp/names"
	"repro/internal/config"
	"repro/internal/dn"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// sparseRunner is the SIGMA-like composition (sparse controller + Benes +
// DMN + FAN). It runs sparse-times-(possibly sparse) GEMMs: the non-zeros
// of the stationary MK matrix are packed into rounds of dynamic-size
// clusters — one cluster per filter/output-row chunk — and the KN matrix
// streams column by column, each distinct k value multicast through the
// Benes network to every switch holding a stationary element of that k.
// Zero streaming values are skipped entirely, so cycle counts depend on the
// actual distribution of zeros, the effect that breaks analytical models
// (Fig. 1c).
type sparseRunner struct {
	hw config.Hardware
}

// sigmaCluster is one mapped chunk: a contiguous run of switches holding
// the chunk's stationary non-zeros.
type sigmaCluster struct {
	row  int
	vals []float32 // stationary value per member switch
	// members is the cluster's run of switch indices, a window of the
	// rounds' shared identity table: JobSpecs share it read-only, and
	// members[p : p+1] is member p's unicast stationary-load set.
	members []int
}

// sigmaRound precomputes, per distinct k in the round, the member switches
// that hold it, so streaming steps cost O(participants).
type sigmaRound struct {
	clusters []sigmaCluster
	used     int
	// kOrder lists the round's distinct k values in first-use order;
	// kDests[i] is the immutable multicast set of kOrder[i].
	kOrder []int32
	kDests [][]int
	// clusterOfMS maps switch → cluster index for expectation counting.
	clusterOfMS []int
}

type sigmaSource struct {
	rounds []sigmaRound
	B      *tensor.Tensor
	n      int

	// Work-item scratch, sized for the largest round and overwritten by
	// every Next; expect is the per-cluster participation counter.
	deliv  []dn.Delivery
	jobs   []sim.JobSpec
	expect []int

	round int
	phase int // 0 = stationary load, 1 = stream columns
	col   int
	seq   int

	exhausted bool
}

var _ sim.Source = (*sigmaSource)(nil)

// buildSigmaRounds packs the non-zero rows of A into rounds of at most
// capacity switches and lays out every round's immutable tables. All
// rounds share one backing array per table, so laying them out costs the
// same few allocations however many rounds the packing yields.
func buildSigmaRounds(A *tensor.CSRMatrix, capacity int, policy sched.Policy, seed uint64) []sigmaRound {
	nnz := make([]int, A.Rows)
	for i := 0; i < A.Rows; i++ {
		nnz[i] = A.RowNNZ(i)
	}
	packed := sched.Pack(nnz, capacity, policy, seed)
	var chunks, total int
	for _, r := range packed {
		chunks += len(r)
		for _, c := range r {
			total += c.Len
		}
	}
	rounds := make([]sigmaRound, len(packed))
	clusters := make([]sigmaCluster, chunks)
	clusterOf := make([]int, len(packed)*capacity)
	ident := make([]int, capacity)
	for ms := range ident {
		ident[ms] = ms
	}
	// A round holds at most one distinct k per non-zero, so total bounds
	// every per-k table.
	kOrder := make([]int32, total)
	kDests := make([][]int, total)
	dests := make([]int, total)
	// Per-round scratch: kRound stamps the round a k was last seen in,
	// kSlot its first-use position there; slotOf[ms] is the position of
	// switch ms's k, count and next size and fill each k's set.
	kRound := make([]int, A.Cols)
	kSlot := make([]int, A.Cols)
	slotOf := make([]int, capacity)
	count := make([]int, capacity)
	next := make([]int, capacity)

	var nc, nk, nd int
	for ri, r := range packed {
		sr := &rounds[ri]
		sr.clusters = clusters[nc : nc+len(r) : nc+len(r)]
		sr.clusterOfMS = clusterOf[ri*capacity : (ri+1)*capacity : (ri+1)*capacity]
		for i := range sr.clusterOfMS {
			sr.clusterOfMS[i] = -1
		}
		distinctK := 0
		base := 0
		for ci, chunk := range r {
			idx, vals := A.Row(chunk.Row)
			ks := idx[chunk.Start : chunk.Start+chunk.Len]
			sr.clusters[ci] = sigmaCluster{
				row:     chunk.Row,
				vals:    vals[chunk.Start : chunk.Start+chunk.Len],
				members: ident[base : base+len(ks) : base+len(ks)],
			}
			for p, k := range ks {
				if kRound[k] != ri+1 {
					kRound[k] = ri + 1
					kSlot[k] = distinctK
					kOrder[nk+distinctK] = k
					count[distinctK] = 0
					distinctK++
				}
				slotOf[base+p] = kSlot[k]
				count[kSlot[k]]++
				sr.clusterOfMS[base+p] = ci
			}
			base += len(ks)
		}
		sr.used = base
		sr.kOrder = kOrder[nk : nk+distinctK : nk+distinctK]
		sr.kDests = kDests[nk : nk+distinctK : nk+distinctK]
		for slot := range sr.kDests {
			next[slot] = nd
			nd += count[slot]
			sr.kDests[slot] = dests[next[slot]:nd:nd]
		}
		for ms, slot := range slotOf[:base] {
			dests[next[slot]] = ms
			next[slot]++
		}
		nc += len(r)
		nk += distinctK
	}
	return rounds
}

// newSigmaSource streams the columns of B through the packed rounds.
func newSigmaSource(rounds []sigmaRound, B *tensor.Tensor) *sigmaSource {
	var deliv, clusters int
	for i := range rounds {
		deliv = max(deliv, rounds[i].used)
		clusters = max(clusters, len(rounds[i].clusters))
	}
	return &sigmaSource{
		rounds: rounds, B: B, n: B.Dim(1),
		deliv:  make([]dn.Delivery, deliv),
		jobs:   make([]sim.JobSpec, clusters),
		expect: make([]int, clusters),
	}
}

// Next emits the next phase of the current SIGMA round into the source's
// scratch: values are read from the operands, destination sets come from
// the immutable tables.
func (s *sigmaSource) Next() (sim.WorkItem, bool) {
	if s.exhausted {
		return sim.WorkItem{}, false
	}
	r := &s.rounds[s.round]

	gen := uint32(s.round + 1)
	if s.phase == 0 {
		// Stationary load: every non-zero of the round is unicast into the
		// shadow register of its switch (generation-tagged), so loading
		// pipelines behind the previous round's streaming — SIGMA's
		// double-buffered reconfiguration.
		nd := 0
		for _, cl := range r.clusters {
			for p, v := range cl.vals {
				s.deliv[nd] = dn.Delivery{
					Pkt:   comp.Packet{Value: v, Kind: comp.WeightPkt, Gen: gen},
					Dests: cl.members[p : p+1 : p+1],
				}
				nd++
			}
		}
		s.phase = 1
		s.col = 0
		return sim.WorkItem{Prefetch: r.used, Deliveries: s.deliv[:nd]}, true
	}

	// Stream one column of the KN matrix: distinct non-zero k values are
	// multicast; clusters reduce whatever members participated.
	seq := s.seq
	s.seq++
	j := s.col
	expect := s.expect[:len(r.clusters)]
	clear(expect)
	bd := s.B.Data()
	nd := 0
	for ki, k := range r.kOrder {
		bv := bd[int(k)*s.n+j]
		if bv == 0 {
			continue // streaming sparsity: never delivered, never multiplied
		}
		dests := r.kDests[ki]
		s.deliv[nd] = dn.Delivery{
			Pkt:   comp.Packet{Value: bv, Kind: comp.InputPkt, Seq: seq, Gen: gen},
			Dests: dests,
		}
		nd++
		for _, ms := range dests {
			expect[r.clusterOfMS[ms]]++
		}
	}
	nj := 0
	for ci, cl := range r.clusters {
		if expect[ci] == 0 {
			continue // entire chunk hit zeros in this column
		}
		s.jobs[nj] = sim.JobSpec{
			VN: ci, Seq: seq, Expect: expect[ci],
			OutIdx:  cl.row*s.n + j,
			Last:    true, // each contribution exits and accumulates GB-side
			Members: cl.members,
		}
		nj++
	}

	s.col++
	if s.col >= s.n {
		s.phase = 0
		s.round++
		if s.round >= len(s.rounds) {
			s.exhausted = true
		}
	}
	return sim.WorkItem{Deliveries: s.deliv[:nd], Jobs: s.jobs[:nj]}, true
}

// RunGEMM runs the GEMM through the sparse front end: the sparse
// controller runs every GEMM through its bitmap/CSR format machinery;
// dense operands simply have full bitmaps.
func (r *sparseRunner) RunGEMM(A, B *tensor.Tensor, layer string) (*tensor.Tensor, *stats.Run, error) {
	return r.RunSpMM(A, B, layer, nil)
}

// RunConv lowers the convolution to SpMM per group: sparse filter matrix
// times im2col columns (any CONV maps to GEMM via img2col, Section IV-B).
func (r *sparseRunner) RunConv(in, w *tensor.Tensor, cs tensor.ConvShape, layer string) (*tensor.Tensor, *stats.Run, error) {
	return r.RunConvScheduled(in, w, cs, layer, sched.NS)
}

// RunSpMM executes C = A×B where A is treated as sparse (bitmap or CSR
// front format per the configuration) and zeros in B are skipped. policy
// selects the filter scheduling strategy of use case 3 (nil = NS).
func (r *sparseRunner) RunSpMM(A, B *tensor.Tensor, layer string, policy *sched.Policy) (*tensor.Tensor, *stats.Run, error) {
	if A.Rank() != 2 || B.Rank() != 2 || A.Dim(1) != B.Dim(0) {
		return nil, nil, fmt.Errorf("engine: SpMM shape mismatch %v × %v", A.Shape(), B.Shape())
	}
	pol := sched.NS
	if policy != nil {
		pol = *policy
	}
	csr, err := tensor.ToCSR(A)
	if err != nil {
		return nil, nil, err
	}
	m, k := A.Dim(0), A.Dim(1)
	n := B.Dim(1)

	ctx := sim.NewCtx(&r.hw)
	rounds := buildSigmaRounds(csr, r.hw.MSSize, pol, 0x51634)
	// Empty operand: no rounds, the output is all zeros after 0 cycles.
	if len(rounds) == 0 {
		C := tensor.New(m, n)
		return C, ctx.Finish("SpMM", layer, m, n, k), nil
	}

	f, err := newFlexRun(ctx, r.hw.MSSize, m*n, 0)
	if err != nil {
		return nil, nil, err
	}
	f.sumOut = true
	f.src = newSigmaSource(rounds, B)

	// Sparse metadata traffic: the bitmap front format reads one bit per
	// MK element (packed into 64-bit words); CSR reads one index per
	// non-zero plus row pointers.
	switch r.hw.SparseFormat {
	case config.FmtBitmap:
		ctx.Counters.Add(names.GBMetaReads, uint64((m*k+63)/64))
	case config.FmtCSR:
		ctx.Counters.Add(names.GBMetaReads, uint64(csr.NNZ()+m+1))
	}

	ctx.InitialFill(csr.NNZ() + k*n)
	if err := f.run(); err != nil {
		return nil, nil, fmt.Errorf("engine: %s SpMM %s (%dx%dx%d): %w", r.hw.Name, layer, m, n, k, err)
	}
	ctx.DRAM.WriteBack(m * n)
	C, err := tensor.FromSlice(f.out, m, n)
	if err != nil {
		return nil, nil, err
	}
	run := ctx.Finish("SpMM", layer, m, n, k)
	run.Counters[names.SchedRounds] = uint64(len(rounds))
	return C, run, nil
}

// RunConvScheduled runs a convolution on the sparse controller with an
// explicit filter-scheduling policy (use case 3: the prior-simulation
// function reorders the filters, the sparse controller issues them in that
// order).
func (r *sparseRunner) RunConvScheduled(in, w *tensor.Tensor, cs tensor.ConvShape, layer string, pol sched.Policy) (*tensor.Tensor, *stats.Run, error) {
	xo, yo := cs.OutX(), cs.OutY()
	out := tensor.New(cs.N, cs.K, xo, yo)
	kg := cs.K / cs.G
	var agg *stats.Run
	for g := 0; g < cs.G; g++ {
		cols, err := tensor.Im2Col(in, cs, g)
		if err != nil {
			return nil, nil, err
		}
		fm, err := tensor.FilterMatrix(w, cs, g)
		if err != nil {
			return nil, nil, err
		}
		C, run, err := r.RunSpMM(fm, cols, fmt.Sprintf("%s.g%d", layer, g), &pol)
		if err != nil {
			return nil, nil, err
		}
		nc := xo * yo
		for kf := 0; kf < kg; kf++ {
			kk := g*kg + kf
			for b := 0; b < cs.N; b++ {
				for pix := 0; pix < nc; pix++ {
					out.Set(C.At(kf, b*nc+pix), b, kk, pix/yo, pix%yo)
				}
			}
		}
		if agg == nil {
			agg = run
			agg.Op = "CONV"
			agg.Layer = layer
		} else {
			agg.Merge(run)
		}
	}
	m, n, k := cs.GEMMDims()
	agg.M, agg.N, agg.K = m, n, k
	agg.RecomputeUtilization(r.hw.MSSize)
	return out, agg, nil
}
