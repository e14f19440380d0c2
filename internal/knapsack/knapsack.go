// Package knapsack solves the 0/1 knapsack problems that arise when packing
// index-build operators into idle schedule slots (§5.3.1 of the paper,
// Algorithm 3): an LP-relaxation branch-and-bound solver, the Graham-style
// greedy baseline of §6.4, and the merged-slot upper bound used in Fig. 11.
package knapsack

import (
	"math"
	"sort"
)

// Item is a candidate for packing: an index-build operator with an
// execution-time Size (the pi of Algorithm 3) and a Gain (the gi).
type Item struct {
	// ID is an opaque caller-provided identifier.
	ID int
	// Size is the item's size in the same unit as the capacity (seconds).
	Size float64
	// Gain is the objective contribution when the item is packed.
	Gain float64
}

// Solution is the result of a knapsack solve.
type Solution struct {
	// Chosen holds the IDs of the selected items.
	Chosen []int
	// Gain is the total gain of the selection.
	Gain float64
	// Used is the total size of the selection.
	Used float64
}

// Solve maximizes total gain subject to total size <= capacity, solving the
// 0/1 knapsack exactly via the LP relaxation and branch and bound
// (Algorithm 3: "solves the relaxed problem setting the weights between 0
// and 1 and calls a branch and bound algorithm to find integer values").
// Items with non-positive gain are never chosen; items larger than the
// capacity are skipped.
func Solve(capacity float64, items []Item) Solution {
	// Keep only packable, useful items, sorted by gain density for both
	// the relaxation bound and the branching order.
	cand := make([]Item, 0, len(items))
	for _, it := range items {
		if it.Gain > 0 && it.Size <= capacity {
			cand = append(cand, it)
		}
	}
	sort.SliceStable(cand, func(i, j int) bool {
		di := density(cand[i])
		dj := density(cand[j])
		if di != dj {
			return di > dj
		}
		return cand[i].Size < cand[j].Size
	})

	b := &bnb{items: cand, capacity: capacity, budget: maxNodes}
	b.best = -1
	// Seed the incumbent with the greedy-by-density solution so pruning
	// has a strong bound from the start.
	greedySet := make([]bool, len(cand))
	var gGain, gUsed float64
	for i, it := range cand {
		if gUsed+it.Size <= capacity+1e-12 {
			greedySet[i] = true
			gGain += it.Gain
			gUsed += it.Size
		}
	}
	b.best = gGain
	b.bestSet = append([]bool(nil), greedySet...)
	b.branch(0, 0, 0, make([]bool, len(cand)))

	sol := Solution{}
	for i, take := range b.bestSet {
		if take {
			sol.Chosen = append(sol.Chosen, cand[i].ID)
			sol.Gain += cand[i].Gain
			sol.Used += cand[i].Size
		}
	}
	return sol
}

func density(it Item) float64 {
	if it.Size <= 0 {
		return math.Inf(1)
	}
	return it.Gain / it.Size
}

// maxNodes bounds the branch-and-bound search. Equal-density inputs (gain
// proportional to size) degrade the LP bound's pruning power and the search
// can go exponential; past the budget the incumbent — at least as good as
// greedy-by-density — is returned.
const maxNodes = 500_000

type bnb struct {
	items    []Item
	capacity float64
	best     float64
	bestSet  []bool
	budget   int
}

// relaxedBound returns the LP-relaxation upper bound for items[from:] with
// the given remaining capacity: take whole items greedily by density, then
// a fraction of the first that does not fit.
func (b *bnb) relaxedBound(from int, remaining float64) float64 {
	var bound float64
	for i := from; i < len(b.items); i++ {
		it := b.items[i]
		if it.Size <= remaining {
			bound += it.Gain
			remaining -= it.Size
			continue
		}
		if it.Size > 0 {
			bound += it.Gain * remaining / it.Size
		}
		break
	}
	return bound
}

// branch walks the take/skip tree. The skip child is a tail call, so it is
// expressed as loop continuation: recursion depth is bounded by the number
// of *taken* items rather than the item count, which matters on the
// equal-density inputs where the budget (not pruning) ends the search. The
// node order, budget accounting, and incumbent updates are exactly those of
// the straightforward doubly-recursive form.
func (b *bnb) branch(i int, gain, used float64, set []bool) {
	for {
		if b.budget <= 0 {
			return
		}
		b.budget--
		if gain > b.best {
			b.best = gain
			b.bestSet = append(b.bestSet[:0], set...)
		}
		if i >= len(b.items) {
			return
		}
		if gain+b.relaxedBound(i, b.capacity-used) <= b.best+1e-12 {
			return // prune: even the fractional optimum cannot beat the incumbent
		}
		it := b.items[i]
		if used+it.Size <= b.capacity+1e-12 {
			set[i] = true
			b.branch(i+1, gain+it.Gain, used+it.Size, set)
			set[i] = false
		}
		i++
	}
}

// Assignment maps each slot (by position) to the IDs of the items packed
// into it.
type Assignment struct {
	PerSlot [][]int
	Gain    float64
	// Unassigned holds the IDs of items that fit nowhere.
	Unassigned []int
}

// SolvePerSlot packs items into multiple idle slots the way the LP
// interleaving algorithm does (Algorithm 2): slots are processed in
// decreasing size order (ties in slot order), a knapsack is solved for
// each, and chosen items are removed from the pool. It is the one slot loop
// of Algorithm 2: interleave.PackSchedule places its PerSlot choices.
func SolvePerSlot(slots []float64, items []Item) Assignment {
	order := make([]int, len(slots))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return slots[order[a]] > slots[order[b]] })

	pool := append([]Item(nil), items...)
	out := Assignment{PerSlot: make([][]int, len(slots))}
	for _, si := range order {
		if len(pool) == 0 {
			break
		}
		sol := Solve(slots[si], pool)
		out.PerSlot[si] = sol.Chosen
		out.Gain += sol.Gain
		chosen := make(map[int]bool, len(sol.Chosen))
		for _, id := range sol.Chosen {
			chosen[id] = true
		}
		next := pool[:0]
		for _, it := range pool {
			if !chosen[it.ID] {
				next = append(next, it)
			}
		}
		pool = next
	}
	for _, it := range pool {
		out.Unassigned = append(out.Unassigned, it.ID)
	}
	return out
}

// Graham packs items greedily in the style of Graham's longest-processing-
// time list scheduling (the §6.4 baseline): items are ordered by descending
// size and each is placed into the slot with the most remaining room; an
// item that fits nowhere is dropped.
func Graham(slots []float64, items []Item) Assignment {
	remaining := append([]float64(nil), slots...)
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return items[order[a]].Size > items[order[b]].Size })

	out := Assignment{PerSlot: make([][]int, len(slots))}
	for _, ii := range order {
		it := items[ii]
		if it.Gain <= 0 {
			continue
		}
		best := -1
		for s := range remaining {
			if remaining[s] >= it.Size && (best < 0 || remaining[s] > remaining[best]) {
				best = s
			}
		}
		if best < 0 {
			out.Unassigned = append(out.Unassigned, it.ID)
			continue
		}
		out.PerSlot[best] = append(out.PerSlot[best], it.ID)
		remaining[best] -= it.Size
		out.Gain += it.Gain
	}
	return out
}

// UpperBound returns the gain of the relaxation used in §6.4 to bound
// solution quality: all idle slots are merged into one continuous segment
// and a single knapsack is solved over it.
func UpperBound(slots []float64, items []Item) float64 {
	var total float64
	for _, s := range slots {
		total += s
	}
	return Solve(total, items).Gain
}
