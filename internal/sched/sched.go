// Package sched implements the static filter-scheduling strategies of the
// paper's third use case (Section VI-C): given the non-zero sizes of the
// sparse filters (rows of the stationary matrix), a policy decides the
// order in which the sparse memory controller maps them onto the
// multiplier network, and the packer bins them into rounds of at most the
// fabric size.
package sched

import (
	"fmt"
	"sort"
	"strings"
)

// Policy names a filter-scheduling strategy.
type Policy int

const (
	// NS (No Scheduling) keeps the natural filter order.
	NS Policy = iota
	// RDM shuffles the filters pseudo-randomly.
	RDM
	// LFF (Largest Filter First) always maps the largest remaining filter
	// that fits, then fills the rest of the switches in descending size
	// order — the paper's load-balancing heuristic.
	LFF
)

func (p Policy) String() string {
	switch p {
	case NS:
		return "NS"
	case RDM:
		return "RDM"
	case LFF:
		return "LFF"
	default:
		return "Policy(?)"
	}
}

// ParsePolicy is the inverse of Policy.String: it accepts a policy name in
// any case, with surrounding space ignored, and "" as NS.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "", "NS":
		return NS, nil
	case "RDM":
		return RDM, nil
	case "LFF":
		return LFF, nil
	default:
		return NS, fmt.Errorf("unknown policy %q (want NS, RDM or LFF)", s)
	}
}

// Chunk is one contiguous slice of a filter's non-zeros mapped in one
// round; filters larger than the fabric split into several chunks whose
// partial sums accumulate.
type Chunk struct {
	Row        int // filter (output row) index
	Start, Len int // non-zero range within the row
	Final      bool
}

// Round is the set of chunks mapped simultaneously onto the fabric.
type Round []Chunk

// rng is a tiny deterministic generator so RDM schedules are reproducible.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Pack bins filters with the given non-zero counts into rounds of at most
// `capacity` multiplier switches, following the policy. Zero-size filters
// produce no chunks (their outputs are all zero and never mapped).
func Pack(nnz []int, capacity int, policy Policy, seed uint64) []Round {
	if capacity <= 0 {
		return nil
	}
	type item struct{ row, size int }
	items := make([]item, 0, len(nnz))
	for row, n := range nnz {
		if n > 0 {
			items = append(items, item{row, n})
		}
	}
	switch policy {
	case RDM:
		r := rng{s: seed ^ 0x5eed}
		for i := len(items) - 1; i > 0; i-- {
			j := int(r.next() % uint64(i+1))
			items[i], items[j] = items[j], items[i]
		}
	}

	var rounds []Round
	switch policy {
	case LFF:
		// Oversize filters first fold across full rounds; their tails
		// rejoin the pool as ordinary chunks.
		pool := make([]chunkItem, 0, len(items))
		for _, it := range items {
			if it.size <= capacity {
				pool = append(pool, chunkItem{row: it.row, size: it.size, final: true})
				continue
			}
			start := 0
			for it.size-start >= capacity {
				rounds = append(rounds, Round{{
					Row: it.row, Start: start, Len: capacity,
					Final: start+capacity == it.size,
				}})
				start += capacity
			}
			if start < it.size {
				pool = append(pool, chunkItem{row: it.row, start: start, size: it.size - start, final: true})
			}
		}
		sort.SliceStable(pool, func(a, b int) bool { return pool[a].size > pool[b].size })
		// Best-fit descending: repeatedly scan the remaining chunks in
		// descending size order, taking every one that still fits.
		for len(pool) > 0 {
			var round Round
			used := 0
			var leftover []chunkItem
			for _, it := range pool {
				if it.size <= capacity-used {
					round = append(round, Chunk{Row: it.row, Start: it.start, Len: it.size, Final: it.final})
					used += it.size
				} else {
					leftover = append(leftover, it)
				}
			}
			rounds = append(rounds, round)
			pool = leftover
		}
	default:
		// NS and RDM: sequential fill in (shuffled) order. Filters map
		// whole — a filter that does not fit the remaining switches closes
		// the round (Fig. 8: entire filters are the mapping granularity;
		// the resulting fragmentation is exactly what LFF recovers). Only
		// a filter larger than the whole fabric folds across rounds.
		var round Round
		used := 0
		flush := func() {
			if len(round) > 0 {
				rounds = append(rounds, round)
				round, used = nil, 0
			}
		}
		for _, it := range items {
			if it.size > capacity {
				// An oversize filter folds across rounds: its chunks
				// stream through whatever capacity each round has left, so
				// neighbouring filters share its head and tail rounds.
				start := 0
				for start < it.size {
					if used == capacity {
						flush()
					}
					take := capacity - used
					if take > it.size-start {
						take = it.size - start
					}
					round = append(round, Chunk{
						Row: it.row, Start: start, Len: take,
						Final: start+take == it.size,
					})
					used += take
					start += take
					if used == capacity {
						flush()
					}
				}
				continue
			}
			if it.size > capacity-used {
				flush()
			}
			round = append(round, Chunk{Row: it.row, Start: 0, Len: it.size, Final: true})
			used += it.size
		}
		flush()
	}
	return rounds
}

// chunkItem is a schedulable unit in the LFF pool: a whole filter or the
// tail chunk of an oversize one.
type chunkItem struct {
	row, start, size int
	final            bool
}

// Utilization returns the mean fraction of switches occupied across
// rounds — the MS-utilization metric of Figure 9. Degenerate inputs (no
// rounds, or a fabric without switches) report zero utilization.
func Utilization(rounds []Round, capacity int) float64 {
	if len(rounds) == 0 || capacity <= 0 {
		return 0
	}
	total := 0
	for _, r := range rounds {
		for _, c := range r {
			total += c.Len
		}
	}
	return float64(total) / float64(len(rounds)*capacity)
}

// FiltersPerRound returns the mean number of (whole) filters mapped
// simultaneously — the metric of Figure 7a.
func FiltersPerRound(rounds []Round) float64 {
	if len(rounds) == 0 {
		return 0
	}
	n := 0
	for _, r := range rounds {
		n += len(r)
	}
	return float64(n) / float64(len(rounds))
}
