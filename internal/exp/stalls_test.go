package exp

import (
	"context"
	"testing"

	"repro/internal/stats"
)

func TestStallBreakdownSweep(t *testing.T) {
	rows, err := StallBreakdown(context.Background(), 0, testScale)
	if err != nil {
		t.Fatal(err)
	}
	// 3 MAERI bandwidth points × 8 layers + 8 TPU reference rows.
	if len(rows) != 32 {
		t.Fatalf("got %d rows, want 32", len(rows))
	}
	busy := func(b stats.CycleBreakdown) uint64 { return b.Busy }
	drain := func(b stats.CycleBreakdown) uint64 { return b.Drain }
	maeriCycles := map[int]map[string]uint64{}
	for _, r := range rows {
		if r.Cycles == 0 {
			t.Fatalf("%s/%s bw=%d: zero cycles", r.Arch, r.Layer, r.BW)
		}
		if len(r.Breakdown) != 4 {
			t.Fatalf("%s/%s bw=%d: %d tiers in breakdown", r.Arch, r.Layer, r.BW, len(r.Breakdown))
		}
		// The exactness invariant holds for every row and tier.
		for tier, b := range r.Breakdown {
			if b.Total() != r.Cycles {
				t.Errorf("%s/%s bw=%d tier %s: sums to %d of %d cycles",
					r.Arch, r.Layer, r.BW, tier, b.Total(), r.Cycles)
			}
		}
		if r.Arch == "maeri" {
			if maeriCycles[r.BW] == nil {
				maeriCycles[r.BW] = map[string]uint64{}
			}
			maeriCycles[r.BW][r.Layer] = r.Cycles
		} else if f := r.Frac("MN", busy) + r.Frac("MN", drain); f < 0.999 {
			// The rigid TPU reference never stalls from preloaded buffers:
			// every MN cycle is stream (busy) or fixed pipeline drain.
			t.Errorf("tpu/%s: MN busy+drain fraction %.3f, want 1", r.Layer, f)
		}
	}
	// The Fig. 1b shape the table explains: shrinking bandwidth never makes
	// a layer faster — the extra cycles the breakdown attributes are real.
	for _, pair := range [][2]int{{128, 64}, {64, 32}} {
		for layer, hi := range maeriCycles[pair[0]] {
			if lo := maeriCycles[pair[1]][layer]; lo < hi {
				t.Errorf("%s: cycles fell from %d (bw=%d) to %d (bw=%d)", layer, hi, pair[0], lo, pair[1])
			}
		}
	}
}
