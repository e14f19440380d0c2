package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// exact renders what a schedule is, to the bit: every container's type and
// books, every op's interval as float bits, and the running totals.
func exact(s *Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "quanta=%d used=%d placed=%d ms=%x money=%x\n",
		s.quanta, s.used, s.nPlaced, math.Float64bits(s.Makespan()), math.Float64bits(s.MoneyQuanta()))
	for c, k := range s.conts {
		fmt.Fprintf(&b, "c%d type=%d lease=%d flowEnd=%x builds=%d:", c, k.typ, k.lease, math.Float64bits(k.flowEnd), k.builds)
		for _, id := range k.ops {
			a := s.assign[id]
			fmt.Fprintf(&b, " op%d[%x,%x]", id, math.Float64bits(a.Start), math.Float64bits(a.End))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestTakeoverMatchesCopies drives Alg. 4 one step at a time, with index
// builds, and checks every advance against an oracle that materializes
// the same survivors on copies: the frontier's schedules are distinct,
// none is on the free list, and each is bit-identical to its oracle copy.
// The runs must meet a source with two or more survivors, a source with
// exactly one (taken over) and a member surviving as itself.
func TestTakeoverMatchesCopies(t *testing.T) {
	var multi, single, itself int
	for seed := int64(1); seed <= 6; seed++ {
		g := randomDAG(seed, 30, 4)
		sk := NewSkyline(testOpts())
		order, err := steps(g, true)
		if err != nil {
			t.Fatal(err)
		}
		sky := sk.origin(g)
		var free freeList
		for n, st := range order {
			cands := sk.expand(sky, st)
			var fb frontierBuf
			tb := scope{sky: sky, op: st.id, rule: preferMoreOps}
			survivors := prune(fb.pareto(slices.Clone(cands), &tb), sk.Opts.MaxSkyline)
			perSource := make(map[int32]int)
			var want []string
			for _, c := range survivors {
				s := sky[c.from].s
				if c.kind != keep {
					s = s.Clone()
					if _, err := s.make(tb.move(&c)); err != nil {
						t.Fatal(err)
					}
					perSource[c.from]++
				} else {
					itself++
				}
				want = append(want, exact(s))
			}
			for _, k := range perSource {
				if k == 1 {
					single++
				} else {
					multi++
				}
			}

			sky = sk.advance(&tb, cands, &free)
			if len(sky) != len(want) {
				t.Fatalf("seed %d step %d: frontier has %d members, the oracle %d", seed, n, len(sky), len(want))
			}
			for i := range sky {
				for j := range i {
					if sky[i].s == sky[j].s {
						t.Fatalf("seed %d step %d: members %d and %d share a schedule", seed, n, j, i)
					}
				}
				if slices.Contains(free, sky[i].s) {
					t.Fatalf("seed %d step %d: member %d is on the free list", seed, n, i)
				}
				if got := exact(sky[i].s); got != want[i] {
					t.Fatalf("seed %d step %d: member %d differs from its copy:\n%s\nwant:\n%s", seed, n, i, got, want[i])
				}
			}
		}
	}
	t.Logf("sources with several survivors %d, with one %d; members surviving as themselves %d", multi, single, itself)
	if multi == 0 || single == 0 || itself == 0 {
		t.Fatalf("the runs did not meet every case: %d, %d, %d", multi, single, itself)
	}
}

// paretoAll is the unfiltered Pareto filter, the oracle prefilter is held
// to: every candidate's key is sorted and walked.
func (b *frontierBuf) paretoAll(cands []candidate, sc *scope) []candidate {
	b.keys = b.keys[:0]
	for i := range cands {
		b.keys = append(b.keys, paretoKey{cands[i].p.time, cands[i].p.money, i})
	}
	slices.SortFunc(b.keys, cmpParetoKey)
	return b.walk(cands, sc)
}

// prefilterCands generates a candidate set in runs of one source each:
// bit-identical duplicates inside a run; eps chains whose links each win
// their fold (in time, and in money when money is not integral) before or
// after a run holding a point a and a point d later than a in time, or
// (money not integral) dearer, by less and by more than the prefilter's
// margins; points near earlier ones,
// and tie-break values drawn from small sets so prefer meets ties. Each
// candidate's cont is its index.
func prefilterCands(seed int64, integral bool) []candidate {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(120)
	cands := make([]candidate, 0, n+8)
	from, lo := 0, 0
	add := func(p point) {
		cands = append(cands, candidate{p: p, from: int32(from), cont: int32(len(cands))})
	}
	newRun := func() { from, lo = from+1, len(cands) }
	tieBreaks := func(p *point) {
		p.ops, p.conts = int32(1+rng.Intn(3)), int32(1+rng.Intn(2))
		p.seqIdle = float64(rng.Intn(3)) * 10
	}
	steps := []float64{0, eps / 2, eps, 1.5 * eps, 1e-7, 1e-6, 0.5, 1, 7}
	for len(cands) < n {
		if len(cands) > 0 && rng.Intn(4) == 0 {
			newRun()
		}
		var p point
		switch r := rng.Intn(6); {
		case r == 0 && len(cands) > lo: // the same bits as an earlier candidate of the run
			p = cands[lo+rng.Intn(len(cands)-lo)].p
			tieBreaks(&p)
		case r == 1 && len(cands) > 0: // an eps chain beside a and d, d = a shifted by a margin
			a := cands[rng.Intn(len(cands))].p
			dir, dm := float64(1-2*rng.Intn(2)), 0.0
			if !integral {
				dm = 0.9 * eps * float64(rng.Intn(3)-1)
			}
			link := a
			for j := 0; j < 2+rng.Intn(4); j++ {
				newRun()
				link.time += dir * 0.6 * eps
				link.money += dm
				link.seqIdle += 10 // each link is preferred to the last under both rules
				add(link)
			}
			newRun()
			a.seqIdle = 0
			add(a)
			p = a
			p.seqIdle = 1000 // d wins any fold it meets
			margins := []float64{1.5 * eps, 2.5 * eps, 3 * eps, float64(2*len(cands)+8) * eps, 1}
			if m := margins[rng.Intn(len(margins))]; integral || rng.Intn(2) == 0 {
				p.time += m
			} else {
				p.money += m
			}
		case r == 2 && len(cands) > 0: // near an earlier candidate
			p = cands[rng.Intn(len(cands))].p
			p.time += steps[rng.Intn(len(steps))]
			if !integral {
				p.money += steps[rng.Intn(len(steps))] * float64(rng.Intn(3)-1)
			} else if rng.Intn(3) == 0 {
				p.money += float64(rng.Intn(3))
			}
			tieBreaks(&p)
		default:
			p.time = float64(rng.Intn(8)) * 10
			p.money = float64(1 + rng.Intn(6))
			if !integral {
				p.money *= 1.1
			}
			tieBreaks(&p)
		}
		add(p)
	}
	return cands
}

// FuzzParetoPrefilter holds the prefiltered Pareto filter to the
// unfiltered one over generated candidate sets, under both tie-breaks and
// with integral and fractional money: the same survivors, in the same
// order, with the same points.
func FuzzParetoPrefilter(f *testing.F) {
	for _, seed := range []int64{1, 4, 6, 45, 131, 644, 960, 1661} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, integral := range []bool{true, false} {
			for _, rule := range []func(sc *scope, a, b *candidate) bool{preferSeqIdle, preferMoreOps} {
				cands := prefilterCands(seed, integral)
				var fa, fb frontierBuf
				got := fa.pareto(slices.Clone(cands), &scope{rule: rule})
				want := fb.paretoAll(slices.Clone(cands), &scope{rule: rule})
				if len(got) != len(want) {
					t.Fatalf("integral %v: prefiltered frontier has %d members, unfiltered %d", integral, len(got), len(want))
				}
				for i := range got {
					if got[i].cont != want[i].cont || got[i].p != want[i].p {
						t.Fatalf("integral %v: member %d is candidate %d %+v, want %d %+v",
							integral, i, got[i].cont, got[i].p, want[i].cont, want[i].p)
					}
				}
			}
		}
	})
}
