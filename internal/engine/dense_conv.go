package engine

import (
	"fmt"
	"slices"

	"repro/internal/comp"
	"repro/internal/dn"
	"repro/internal/mapper"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// convSource emits the schedule for a convolution on the flexible dense
// fabric: virtual neurons span T_K parallel filters × T_Y' adjacent output
// positions, weights stay stationary across a panel of output positions,
// and the Linear MN forwarding links carry the sliding-window overlap
// between consecutive steps.
type convSource struct {
	in, w *tensor.Tensor
	cs    tensor.ConvShape
	t     mapper.Tile

	cg, kg, xo, yo int
	folds          int

	// Output position groups: each group is one step covering TYp
	// consecutive oy positions at one ox.
	groupsPerRow, panelGroups, panels int

	// Immutable destination tables (see sim.Source), built once at
	// construction. weightDests[kk·VNSize+p] holds the TYp position
	// replicas of filter kk's slice element p; steps holds one template
	// per step shape.
	weightDests [][]int
	steps       []convStep

	// Work-item scratch, sized for the largest item and overwritten by
	// every Next.
	reload []int
	deliv  []dn.Delivery
	jobs   []sim.JobSpec

	// iteration state
	g, mb, panel, fold, grp int
	phase                   int // 0 = weight load, 1 = stream
	seq                     int
	exhausted               bool

	prevOx     int
	forwarding bool

	// seen[idx] holds the generation (seq+1) input coordinate idx was last
	// delivered in. A coordinate whose stamp equals the previous step's
	// generation was just delivered and can ride the forwarding links.
	seen   []uint32
	coordW int // padded row width (Y + 2·padding)
	coordH int // padded column count (X + 2·padding)
}

// convStep is the template of one output-position-group step for one
// shape: cw channels in the fold, rows valid output positions, filt valid
// filters. Which input coordinates a step touches, and which switches
// each one feeds, depend only on that shape — not on where the group sits
// in the output — so the destination sets are computed once.
type convStep struct {
	cw, rows, filt int
	// coords lists the step's distinct input coordinates in first-use
	// order (ty outer, member p inner), each with its multicast set.
	coords []convCoord
	// expect is the product count every job of the step waits for: one
	// per member switch with a valid channel slice.
	expect int
}

// convCoord locates one input coordinate relative to the step: channel
// tc of the fold, filter row tr, and column off = ty·stride + ts past the
// group's first input column.
type convCoord struct {
	tc, tr, off int
	dests       []int
}

var _ sim.Source = (*convSource)(nil)

func newConvSource(in, w *tensor.Tensor, cs tensor.ConvShape, t mapper.Tile, forwarding bool) *convSource {
	c := &convSource{
		in: in, w: w, cs: cs, t: t,
		cg: cs.C / cs.G, kg: cs.K / cs.G,
		xo: cs.OutX(), yo: cs.OutY(),
		folds:      t.Folds,
		forwarding: forwarding,
		prevOx:     -1,
		coordH:     cs.X + 2*cs.Padding,
		coordW:     cs.Y + 2*cs.Padding,
	}
	c.seen = make([]uint32, cs.C*c.coordH*c.coordW)
	c.groupsPerRow = ceilDiv(c.yo, t.TYp)
	totalGroups := c.xo * c.groupsPerRow
	c.panelGroups = sim.MaxAccEntries / (t.TK * t.TYp)
	if c.panelGroups < 1 {
		c.panelGroups = 1
	}
	if c.panelGroups > totalGroups {
		c.panelGroups = totalGroups
	}
	c.panels = ceilDiv(totalGroups, c.panelGroups)

	c.weightDests = destTable(t.TK*t.VNSize, t.TYp, func(e, ty int) int {
		return c.ms(e/t.VNSize, ty, e%t.VNSize)
	})
	// Every step shape the iteration can reach: the channel count of each
	// fold, a full or tail group of output positions, a full or tail
	// block of filters.
	for _, cw := range distinct(c.folds, func(f int) int { return c.foldChannels(f) }) {
		for _, rows := range distinct(c.groupsPerRow, func(gi int) int { return min(t.TYp, c.yo-gi*t.TYp) }) {
			for _, filt := range distinct(c.mblocks(), func(mb int) int { return min(t.TK, c.kg-mb*t.TK) }) {
				c.steps = append(c.steps, c.buildStep(cw, rows, filt))
			}
		}
	}

	c.reload = make([]int, t.TK*t.VNSize*t.TYp)
	c.deliv = make([]dn.Delivery, max(t.TK, t.TYp)*t.VNSize)
	c.jobs = make([]sim.JobSpec, t.TK*t.TYp)
	return c
}

// distinct returns the distinct values of f over [0, n) in first-seen
// order.
func distinct(n int, f func(int) int) []int {
	var vals []int
	for i := 0; i < n; i++ {
		if v := f(i); !slices.Contains(vals, v) {
			vals = append(vals, v)
		}
	}
	return vals
}

// buildStep computes the step template of one shape: the coordinates are
// grouped for multicast in the order the members first need them, and
// each coordinate feeds member p of VN (kk, ty) for every valid filter kk.
func (c *convSource) buildStep(cw, rows, filt int) convStep {
	t := c.t
	st := convStep{cw: cw, rows: rows, filt: filt}
	type key struct{ tc, tr, off int }
	index := map[key]int{}
	var members [][]int
	for ty := 0; ty < rows; ty++ {
		for p := 0; p < t.VNSize; p++ {
			tc, tr, ts := c.decode(p)
			if tc >= cw {
				continue
			}
			k := key{tc, tr, ty*c.cs.Stride + ts}
			e, ok := index[k]
			if !ok {
				e = len(st.coords)
				index[k] = e
				st.coords = append(st.coords, convCoord{tc: k.tc, tr: k.tr, off: k.off})
				members = append(members, nil)
			}
			for kk := 0; kk < filt; kk++ {
				members[e] = append(members[e], c.ms(kk, ty, p))
			}
		}
	}
	for e := range st.coords {
		st.coords[e].dests = slices.Clip(members[e])
	}
	for p := 0; p < t.VNSize; p++ {
		if tc, _, _ := c.decode(p); tc < cw {
			st.expect++
		}
	}
	return st
}

func (c *convSource) expectedOutputs() int {
	return c.cs.K * c.xo * c.yo
}

// vns lays VN (kk, ty) = kk·TYp + ty over consecutive switch ranges.
func (c *convSource) vns() [][]int {
	return destTable(c.t.TK*c.t.TYp, c.t.VNSize, func(v, p int) int { return v*c.t.VNSize + p })
}

func (c *convSource) ms(kk, ty, p int) int { return (kk*c.t.TYp+ty)*c.t.VNSize + p }

// member p of a VN decodes to filter offsets (tc, tr, ts).
func (c *convSource) decode(p int) (tc, tr, ts int) {
	ts = p % c.t.TS
	tr = (p / c.t.TS) % c.t.TR
	tc = p / (c.t.TS * c.t.TR)
	return
}

func (c *convSource) mblocks() int { return ceilDiv(c.kg, c.t.TK) }

// foldChannels is the channel count of fold f.
func (c *convSource) foldChannels(f int) int { return min(c.t.TC, c.cg-f*c.t.TC) }

// step returns the template of the given shape.
func (c *convSource) step(cw, rows, filt int) *convStep {
	for i := range c.steps {
		if st := &c.steps[i]; st.cw == cw && st.rows == rows && st.filt == filt {
			return st
		}
	}
	panic("engine: conv step shape missing from the template table")
}

// Next builds the next work item of the convolution schedule into the
// source's scratch: values are read from the operands, destination sets
// come from the immutable tables.
func (c *convSource) Next() (sim.WorkItem, bool) {
	if c.exhausted {
		return sim.WorkItem{}, false
	}
	t := c.t
	cw := c.foldChannels(c.fold)
	filt := min(t.TK, c.kg-c.mb*t.TK) // valid filters of this block

	if c.phase == 0 {
		// Weight load for (g, mb, fold): each filter's slice multicast to
		// its TYp position replicas.
		nd, nr := 0, 0
		for kk := 0; kk < filt; kk++ {
			kfull := c.g*c.kg + c.mb*t.TK + kk
			for p := 0; p < t.VNSize; p++ {
				tc, tr, ts := c.decode(p)
				if tc >= cw {
					continue
				}
				dests := c.weightDests[kk*t.VNSize+p]
				nr += copy(c.reload[nr:], dests)
				c.deliv[nd] = dn.Delivery{
					Pkt: comp.Packet{
						Value: c.w.At(kfull, c.fold*t.TC+tc, tr, ts),
						Kind:  comp.WeightPkt,
					},
					Dests: dests,
				}
				nd++
			}
		}
		c.phase = 1
		c.prevOx = -1 // a reload breaks the sliding-window reuse chain
		return sim.WorkItem{
			Barrier:    true,
			ReloadSet:  c.reload[:nr],
			Prefetch:   t.TK * t.VNSize,
			Deliveries: c.deliv[:nd],
		}, true
	}

	// Stream one output position group.
	grpAbs := c.panel*c.panelGroups + c.grp
	ox := grpAbs / c.groupsPerRow
	oyBase := (grpAbs % c.groupsPerRow) * t.TYp
	st := c.step(cw, min(t.TYp, c.yo-oyBase), filt)

	seq := c.seq
	c.seq++
	curGen := uint32(seq) + 1
	prevGen := curGen - 1
	sameRow := c.forwarding && c.prevOx == ox
	pad := c.cs.Padding
	for e := range st.coords {
		co := &st.coords[e]
		cc := c.g*c.cg + c.fold*t.TC + co.tc
		ix := ox*c.cs.Stride + co.tr - pad
		iy := oyBase*c.cs.Stride + co.off - pad
		idx := (cc*c.coordH+ix+pad)*c.coordW + iy + pad
		reused := sameRow && c.seen[idx] == prevGen
		c.seen[idx] = curGen
		var v float32
		if ix >= 0 && ix < c.cs.X && iy >= 0 && iy < c.cs.Y {
			v = c.in.At(0, cc, ix, iy)
		}
		c.deliv[e] = dn.Delivery{
			Pkt:     comp.Packet{Value: v, Kind: comp.InputPkt, Seq: seq},
			Dests:   co.dests,
			Forward: reused,
		}
	}
	c.prevOx = ox

	// Every valid (filter, position) VN receives one product per member
	// switch with a valid channel slice.
	nj := 0
	if st.expect > 0 {
		for kk := 0; kk < filt; kk++ {
			kfull := c.g*c.kg + c.mb*t.TK + kk
			for ty := 0; ty < st.rows; ty++ {
				c.jobs[nj] = sim.JobSpec{
					VN: kk*t.TYp + ty, Seq: seq, Expect: st.expect,
					OutIdx: (kfull*c.xo+ox)*c.yo + oyBase + ty,
					Last:   c.fold == c.folds-1,
				}
				nj++
			}
		}
	}

	// Advance: grp → fold → panel → mb → g.
	c.grp++
	if c.grp >= c.panelGroups || c.panel*c.panelGroups+c.grp >= c.xo*c.groupsPerRow {
		c.grp = 0
		c.fold++
		c.phase = 0
		if c.fold >= c.folds {
			c.fold = 0
			c.panel++
			if c.panel >= c.panels {
				c.panel = 0
				c.mb++
				if c.mb >= c.mblocks() {
					c.mb = 0
					c.g++
					if c.g >= c.cs.G {
						c.exhausted = true
					}
				}
			}
		}
	}
	return sim.WorkItem{Deliveries: c.deliv[:len(st.coords)], Jobs: c.jobs[:nj]}, true
}

// RunConv simulates a convolution on the tree-based flexible fabric with
// sliding-window forwarding, using the mapper's tile choice.
func (r *flexDenseRunner) RunConv(in, w *tensor.Tensor, cs tensor.ConvShape, layer string) (*tensor.Tensor, *stats.Run, error) {
	if cs.R*cs.S > r.hw.MSSize {
		return nil, nil, fmt.Errorf("engine: filter window %dx%d exceeds the %d-switch fabric (fold-over-window is not supported by the dense controller)",
			cs.R, cs.S, r.hw.MSSize)
	}
	tile, err := mapper.PickConv(&r.hw, cs)
	if err != nil {
		return nil, nil, err
	}
	return r.RunConvTiled(in, w, cs, layer, tile)
}

// RunConvTiled runs a convolution with an explicit user-supplied tile — in
// STONNE, the tile configuration for every layer is part of the model
// modifications (Fig. 2d); the mapper only provides a default.
func (r *flexDenseRunner) RunConvTiled(in, w *tensor.Tensor, cs tensor.ConvShape, layer string, tile mapper.Tile) (*tensor.Tensor, *stats.Run, error) {
	if err := cs.Validate(); err != nil {
		return nil, nil, err
	}
	if err := tile.Validate(cs); err != nil {
		return nil, nil, err
	}
	if in.Rank() != 4 || in.Dim(0) != cs.N || in.Dim(1) != cs.C || in.Dim(2) != cs.X || in.Dim(3) != cs.Y {
		return nil, nil, fmt.Errorf("engine: conv input %v does not match shape %+v", in.Shape(), cs)
	}
	if cs.N > 1 {
		// The schedule streams one image at a time (T_N == 1 is enforced
		// below): batches run back-to-back on the fabric with their cycle
		// and event counts summed.
		return r.runConvBatched(in, w, cs, layer, tile)
	}
	if tile.UsedMultipliers > r.hw.MSSize {
		return nil, nil, fmt.Errorf("engine: tile uses %d multipliers, fabric has %d", tile.UsedMultipliers, r.hw.MSSize)
	}
	if tile.TG != 1 || tile.TN != 1 {
		return nil, nil, fmt.Errorf("engine: group/batch tile parallelism is not supported (T_G=%d, T_N=%d)", tile.TG, tile.TN)
	}
	// Position parallelism along x is folded into the y sweep — the two
	// are symmetric for the delivery and reuse pattern.
	if tile.TXp > 1 {
		tile.TYp *= tile.TXp
		tile.TXp = 1
	}
	ctx := sim.NewCtx(&r.hw)
	src := newConvSource(in, w, cs, tile, r.hw.MN.String() == "LMN")
	f, err := newFlexRun(ctx, tile.TK*tile.TYp, cs.K*src.xo*src.yo, src.expectedOutputs())
	if err != nil {
		return nil, nil, err
	}
	if err := f.configureVNs(src.vns()); err != nil {
		return nil, nil, err
	}
	f.src = src
	ctx.InitialFill(in.Len() + w.Len())
	if err := f.run(); err != nil {
		return nil, nil, fmt.Errorf("engine: %s CONV %s: %w", r.hw.Name, layer, err)
	}
	ctx.DRAM.WriteBack(cs.K * src.xo * src.yo)
	out, err := tensor.FromSlice(f.out, 1, cs.K, src.xo, src.yo)
	if err != nil {
		return nil, nil, err
	}
	m, n, k := cs.GEMMDims()
	run := ctx.Finish("CONV", layer, m, n, k)
	return out, run, nil
}

// runConvBatched serializes a batched convolution into per-image runs —
// the flexible dense schedule keeps weights stationary within one image's
// position sweep, so images execute sequentially and the statistics merge
// additively.
func (r *flexDenseRunner) runConvBatched(in, w *tensor.Tensor, cs tensor.ConvShape, layer string, tile mapper.Tile) (*tensor.Tensor, *stats.Run, error) {
	xo, yo := cs.OutX(), cs.OutY()
	out := tensor.New(cs.N, cs.K, xo, yo)
	cs1 := cs
	cs1.N = 1
	inPer := cs.C * cs.X * cs.Y
	outPer := cs.K * xo * yo
	var total *stats.Run
	for n := 0; n < cs.N; n++ {
		img, err := tensor.FromSlice(in.Data()[n*inPer:(n+1)*inPer], 1, cs.C, cs.X, cs.Y)
		if err != nil {
			return nil, nil, err
		}
		bout, run, err := r.RunConvTiled(img, w, cs1, layer, tile)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: batch %d: %w", n, err)
		}
		copy(out.Data()[n*outPer:(n+1)*outPer], bout.Data())
		if total == nil {
			total = run
		} else {
			total.Merge(run)
		}
	}
	total.RecomputeUtilization(r.hw.MSSize)
	return out, total, nil
}
