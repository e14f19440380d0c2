package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
)

// Options configures the schedulers.
type Options struct {
	Pricing cloud.Pricing
	Spec    cloud.Spec
	// MaxContainers is C, the largest number of containers a schedule may
	// use (Table 3: 100).
	MaxContainers int
	// MaxSkyline caps the number of partial schedules kept between
	// iterations; 0 means unlimited. Pruning keeps the fastest and the
	// cheapest ends of the frontier and evenly spaced points between.
	MaxSkyline int
	// Types, when non-empty, enables the heterogeneous-pool extension:
	// each fresh container may be leased as any of these VM types, and
	// the skyline explores the choices (§3: "the scheduler can consider
	// slots at different VM types").
	Types []cloud.VMType
}

// DefaultOptions returns the Table 3 experiment configuration with a
// practical skyline cap.
func DefaultOptions() Options {
	return Options{
		Pricing:       cloud.DefaultPricing(),
		Spec:          cloud.DefaultSpec(),
		MaxContainers: 100,
		MaxSkyline:    16,
	}
}

// point is the bi-objective value of a schedule used for domination.
type point struct {
	time, money float64
	// ops counts assigned operators: the §5.3.2 tie-break prefers more
	// (optional) operators at equal time and money.
	ops int32
	// conts counts used containers: the deterministic duplicate tie-break
	// prefers fewer containers at equal objectives.
	conts int32
	// seqIdle is the §5.3.1 tie-break: most sequential idle time.
	seqIdle float64
}

func (s *Schedule) point() point {
	return point{
		time:    s.Makespan(),
		money:   s.MoneyQuanta(),
		ops:     int32(s.Assigned()),
		conts:   int32(s.Containers()),
		seqIdle: -1, // computed lazily only when needed for tie-breaks
	}
}

const eps = 1e-9

// equalObjectives reports whether two points coincide on both objectives.
func equalObjectives(a, b point) bool {
	return math.Abs(a.time-b.time) <= eps && math.Abs(a.money-b.money) <= eps
}

// move records how to derive a schedule from another: either an append of
// op onto container cont, or a placement of op at start (place == true);
// typeIdx >= 0 leases a fresh container as that type. Schedule.plan says
// where it puts the op.
type move struct {
	op      dataflow.OpID
	cont    int
	typeIdx int
	start   float64
	place   bool
}

// member is one schedule of a frontier and its point.
type member struct {
	s *Schedule
	p point
}

// candidate is one schedule a step may keep, unmaterialized: a frontier
// member kept as it is, or a move of the step's op scored on that member,
// its source, with the interval plan gave the op. It holds no pointer and
// fits a cache line (TestCandidateLayout): the source is its index in the
// frontier, and the op is the step's, so the step's scope reads both.
type candidate struct {
	p          point
	start, end float64
	// from is the source's index in the frontier.
	from int32
	// cont and typeIdx are the move's container and lease type (-1: the
	// container's own).
	cont, typeIdx int32
	kind          candKind
}

// candKind says what a candidate does to its source.
type candKind uint8

const (
	appendOp candKind = iota // appends the op onto cont
	placeOp                  // places the op at start on cont
	keep                     // keeps the source as it is
)

// freeList is one run's recycled schedules: the replaced memo entry and
// dropped frontier members go in, and the survivors that copy their source
// and the new memo entry come out, reusing their slice storage through
// CopyFrom. It lives only inside Skyline.run, so what a run allocates does
// not depend on which goroutine ran before it.
type freeList []*Schedule

func (f *freeList) get() *Schedule {
	n := len(*f)
	if n == 0 {
		return new(Schedule)
	}
	s := (*f)[n-1]
	*f = (*f)[:n-1]
	return s
}

func (f *freeList) put(s *Schedule) { *f = append(*f, s) }

// scope is what one step's candidates are read against: the frontier they
// derive from, the op the step moves and the rule (preferSeqIdle or
// preferMoreOps) that folds candidates of equal objectives.
type scope struct {
	sky  []member
	op   dataflow.OpID
	rule func(sc *scope, a, b *candidate) bool
}

// prefer reports whether a should beat b by the step's rule.
func (sc *scope) prefer(a, b *candidate) bool { return sc.rule(sc, a, b) }

// move returns the move candidate c makes on its source.
func (sc *scope) move(c *candidate) move {
	mv := move{op: sc.op, cont: int(c.cont), typeIdx: int(c.typeIdx)}
	if c.kind == placeOp {
		mv.start, mv.place = c.start, true
	}
	return mv
}

// materialize returns candidate c's schedule: its source when it keeps it;
// else the source with c's move made on it when c takes the source over
// (own), or on a copy of the source in a recycled schedule. The move was
// probed legal on that source, so a failure is a probe that disagrees with
// make: it panics here, naming the move, rather than leave a nil schedule
// on the frontier for Fastest to trip over later.
func (sc *scope) materialize(c *candidate, free *freeList, own bool) *Schedule {
	src := sc.sky[c.from].s
	if c.kind == keep {
		return src
	}
	ns := src
	if !own {
		ns = free.get()
		ns.CopyFrom(src)
	}
	mv := sc.move(c)
	if _, err := ns.make(mv); err != nil {
		kind := "append"
		if mv.place {
			kind = "place"
		}
		panic(fmt.Sprintf("sched: probed %s of op %d on container %d does not apply: %v",
			kind, mv.op, mv.cont, err))
	}
	// Fill the seq-idle books (make keeps them through an op appended last),
	// so the tie-break on the next step's moves reads every container but
	// the moved one from them.
	ns.MaxSequentialIdle()
	return ns
}

// seqIdle resolves and caches candidate c's §5.3.1 tie-break value, read
// off its source, which a move does not write to.
func (sc *scope) seqIdle(c *candidate) float64 {
	if c.p.seqIdle < 0 {
		src := sc.sky[c.from].s
		if c.kind == keep {
			c.p.seqIdle = src.MaxSequentialIdle()
		} else {
			c.p.seqIdle = src.seqIdleAfter(sc.move(c), c.start, c.end)
		}
	}
	return c.p.seqIdle
}

// paretoKey is one candidate's sort key: its objectives and its index in
// the candidate slice. The index breaks ties, which makes the order total
// and equal to a stable sort on the objectives alone.
type paretoKey struct {
	time, money float64
	idx         int
}

func cmpParetoKey(a, b paretoKey) int {
	if c := cmp.Compare(a.time, b.time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.money, b.money); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// frontierBuf is the Pareto filter's scratch: the sort keys and the
// survivor buffer.
type frontierBuf struct {
	keys []paretoKey
	out  []candidate
}

// pareto filters cands down to the non-dominated frontier, fastest first,
// written to the survivor buffer. Among candidates with equal objectives
// one survivor is kept, chosen by sc's tie-break. It sorts the keys
// prefilter leaves, which walk gives the frontier of all of cands.
func (b *frontierBuf) pareto(cands []candidate, sc *scope) []candidate {
	b.keys = prefilter(b.keys[:0], cands, sc)
	slices.SortFunc(b.keys, cmpParetoKey)
	return b.walk(cands, sc)
}

// walk is the filter over b.keys in key order: a candidate equal, within
// eps, to the last survivor folds into it by sc's tie-break, one no cheaper
// than the cheapest survivor so far by more than eps is dominated, and any
// other one is appended. cands is never reordered, so only survivors are
// copied.
func (b *frontierBuf) walk(cands []candidate, sc *scope) []candidate {
	out := b.out[:0]
	bestMoney := math.Inf(1)
	for _, k := range b.keys {
		c := &cands[k.idx]
		if n := len(out); n > 0 && equalObjectives(out[n-1].p, c.p) {
			if sc.prefer(c, &out[n-1]) {
				out[n-1] = *c
			}
			continue
		}
		if c.p.money >= bestMoney-eps {
			continue // dominated by an earlier (faster or equal) candidate
		}
		out = append(out, *c)
		bestMoney = c.p.money
	}
	b.out = out
	return out
}

// prefilter appends to keys the keys walk needs to give the frontier of
// all of cands, one run of candidates with the same source at a time. In a
// run, f is the fastest candidate (least time, then money) and c the
// cheapest (least money, then time), each the first in index order.
//
//   - A candidate with f's time and money bits, or c's, folds into it by
//     prefer. The run's equal keys are adjacent in key order (its indices
//     are contiguous) and meet walk's state alike: all are dropped or all
//     end in one survivor, and prefer is a strict weak order, so folding
//     them first gives walk's first maximal element.
//   - A candidate d is dropped when a (f or c, or the candidate of its bits
//     that won the fold) has a.time <= d.time, a.money <= d.money, and
//     d.money - a.money > (2n+2)·eps or, when every money in cands is an
//     integer, d.time - a.time > (n+2)·eps, n = len(cands). Then a comes
//     before d and walk drops d without folding it. Proof: each of at most
//     n folds moves the last survivor by at most eps, so its money is
//     within n·eps of bestMoney, the money its slot was appended with, and
//     after a, bestMoney <= a.money + n·eps and never rises. With the money
//     margin, d.money - eps > bestMoney and the last survivor is more than
//     eps cheaper than d. With integer money, eps equality is equality, a
//     survivor's money is its slot's bestMoney, at most a.money <= d.money
//     after a: below d's, d is dominated and not equal; equal to d's, no
//     slot was appended since a, so the last survivor came by folds from
//     the one after a, which started no later than a.time, and ends at
//     most n·eps later, more than eps before d.time.
//
// The candidates carrying f's and c's bits are kept, so each dropped one
// keeps its dominator. FuzzParetoPrefilter holds pareto to walk over all.
func prefilter(keys []paretoKey, cands []candidate, sc *scope) []paretoKey {
	n := len(cands)
	integral := true
	for i := range cands {
		if m := cands[i].p.money; m != math.Trunc(m) {
			integral = false
			break
		}
	}
	moneyGap, timeGap := float64(2*n+2)*eps, float64(n+2)*eps
	dominates := func(a, d *point) bool {
		return a.time <= d.time && a.money <= d.money &&
			(d.money-a.money > moneyGap || integral && d.time-a.time > timeGap)
	}
	same := func(a, b *point) bool { return a.time == b.time && a.money == b.money }
	for lo := 0; lo < n; {
		hi := lo + 1
		fast, cheap := lo, lo
		for ; hi < n && cands[hi].from == cands[lo].from; hi++ {
			p, f, c := &cands[hi].p, &cands[fast].p, &cands[cheap].p
			if p.time < f.time || p.time == f.time && p.money < f.money {
				fast = hi
			}
			if p.money < c.money || p.money == c.money && p.time < c.time {
				cheap = hi
			}
		}
		fp, cp := &cands[fast].p, &cands[cheap].p
		keepF, keepC := fast, cheap
		for i := lo; i < hi; i++ {
			c := &cands[i]
			switch {
			case i == fast || i == cheap:
			case same(&c.p, fp):
				if sc.prefer(c, &cands[keepF]) {
					keepF = i
				}
			case same(&c.p, cp):
				if sc.prefer(c, &cands[keepC]) {
					keepC = i
				}
			case dominates(fp, &c.p) || dominates(cp, &c.p):
			default:
				keys = append(keys, paretoKey{c.p.time, c.p.money, i})
			}
		}
		keys = append(keys, paretoKey{fp.time, fp.money, keepF})
		if cheap != fast {
			keys = append(keys, paretoKey{cp.time, cp.money, keepC})
		}
		lo = hi
	}
	return keys
}

// prune caps the frontier at max points, always keeping the two endpoints
// (fastest and cheapest) and evenly spaced interior points. A cap of one
// keeps the fastest point, the one Fastest would pick. It compacts into
// cands: the kept indices only increase, so a write never passes a read.
func prune(cands []candidate, max int) []candidate {
	if max <= 0 || len(cands) <= max {
		return cands
	}
	if max == 1 {
		return cands[:1]
	}
	step := float64(len(cands)-1) / float64(max-1)
	n, prev := 0, -1
	for i := 0; i < max; i++ {
		idx := int(math.Round(float64(i) * step))
		if idx == prev {
			continue
		}
		prev = idx
		cands[n] = cands[idx]
		n++
	}
	return cands[:n]
}

// preferCompact is the deterministic duplicate tie-break of last resort:
// among candidates indistinguishable on every preceding criterion, keep
// the one using fewer containers, then the one with the lower op count.
// Equality on all criteria keeps the incumbent (first in merge order),
// which is itself deterministic because candidates are merged in frontier
// order before the Pareto filter.
func preferCompact(a, b *candidate) bool {
	if a.p.conts != b.p.conts {
		return a.p.conts < b.p.conts
	}
	return a.p.ops < b.p.ops
}

// preferSeqIdle is the §5.3.1 tie-break: among equal schedules keep the one
// with the most sequential idle time.
func preferSeqIdle(sc *scope, a, b *candidate) bool {
	if va, vb := sc.seqIdle(a), sc.seqIdle(b); va != vb {
		return va > vb
	}
	return preferCompact(a, b)
}

// preferMoreOps is the §5.3.2 tie-break: among equal schedules keep the one
// with more (optional) operators assigned.
func preferMoreOps(sc *scope, a, b *candidate) bool {
	if a.p.ops != b.p.ops {
		return a.p.ops > b.p.ops
	}
	return preferSeqIdle(sc, a, b)
}

// Skyline is the skyline dataflow scheduler of Algorithm 4: an iterative
// list scheduler that grows a Pareto frontier of partial schedules over the
// time and money objectives. It is also the whole of a tenant's scheduler
// state: the one-entry frontier memo of warm.go lives here, so a fresh
// Skyline is cold and a reused one is warm. A Skyline is used by one
// goroutine at a time.
type Skyline struct {
	Opts Options

	// The frontier memo: the last problem's signature, copies of its
	// frontier (handed out cloned) and the lookup counts.
	sig          []uint64
	memo         []*Schedule
	hits, misses uint64
	// last is the search effort of the last run, Frontier reused from run
	// to run.
	last RunStats

	// A cold run's scratch, grown by append and kept from run to run with
	// no schedule left in it: the candidates, the Pareto filter's buffers,
	// the frontier a step reads (sky[0]) and the one it writes, the
	// survivors per source, a source's inputs to the step's op and a gap
	// step's idle runs.
	cands []candidate
	fb    frontierBuf
	sky   [2][]member
	held  []int
	in    inputs
	slots []Slot
}

// NewSkyline returns a skyline scheduler with the given options.
func NewSkyline(opts Options) *Skyline {
	if opts.MaxContainers <= 0 {
		opts.MaxContainers = 1
	}
	return &Skyline{Opts: opts}
}

// RunStats is the search effort of one skyline run: the iterations it
// started (one per operator step), the candidate schedules it generated
// and the frontier size after each iteration that produced candidates. A
// warm hit searches nothing and reports zero.
type RunStats struct {
	Iterations, Candidates int
	Frontier               []int
}

// LastRun returns the search effort of the last Schedule or
// ScheduleWithOptional call. Its Frontier is the skyline's buffer, valid
// until the next run.
func (sk *Skyline) LastRun() RunStats { return sk.last }

// Schedule computes the skyline of execution schedules for the non-optional
// operators of g, sorted fastest first. Optional operators in g are
// ignored; use ScheduleWithOptional to interleave them.
func (sk *Skyline) Schedule(g *dataflow.Graph) []*Schedule {
	return sk.run(g, false)
}

// ScheduleWithOptional computes the skyline scheduling both the dataflow
// operators and the optional index-build operators of g (§5.3.2). Optional
// operators are placed into idle gaps only, so schedules never get slower
// or more expensive by including them; schedules in the returned skyline
// may therefore differ in how many operators they carry.
func (sk *Skyline) ScheduleWithOptional(g *dataflow.Graph) []*Schedule {
	return sk.run(g, true)
}

// run is Alg. 4: from the empty schedule, one step per operator in steps'
// order expands the frontier into candidates, scored by probing without
// writing to any member, and advances it to their Pareto survivors.
func (sk *Skyline) run(g *dataflow.Graph, withOptional bool) []*Schedule {
	sk.last = RunStats{Frontier: sk.last.Frontier[:0]}
	sig := warmSig(g, &sk.Opts, withOptional)
	if warm := sk.lookup(sig); warm != nil {
		return warm
	}
	// A miss replaces the memo entry, so its schedules are the first storage
	// this run recycles (a run that fails leaves the memo empty).
	free := freeList(sk.memo)
	sk.memo = nil
	defer sk.dropRefs()

	order, err := steps(g, withOptional)
	if err != nil {
		return nil
	}
	if cap(sk.last.Frontier) < len(order) {
		sk.last.Frontier = make([]int, 0, len(order))
	}
	sc := scope{rule: preferSeqIdle}
	if withOptional {
		sc.rule = preferMoreOps
	}
	if sk.cands == nil {
		// The first run reserves the widest dataflow step, so a one-shot
		// Skyline allocates its buffers once instead of by doubling.
		n := max(1, sk.Opts.MaxSkyline) * (min(sk.Opts.MaxContainers, g.Len()) + max(1, len(sk.Opts.Types)))
		sk.cands, sk.fb.keys = make([]candidate, 0, n), make([]paretoKey, 0, n)
		sk.held = make([]int, 0, max(1, sk.Opts.MaxSkyline))
	}
	sky := sk.origin(g)
	for _, st := range order {
		sk.last.Iterations++
		cands := sk.expand(sky, st)
		if len(cands) == 0 {
			return nil
		}
		sk.last.Candidates += len(cands)
		sc.sky, sc.op = sky, st.id
		sky = sk.advance(&sc, cands, &free)
		sk.last.Frontier = append(sk.last.Frontier, len(sky))
	}

	out := make([]*Schedule, len(sky))
	for i := range sky {
		out[i] = sky[i].s
	}
	sk.store(sig, out, &free)
	return out
}

// origin returns the one-member frontier Alg. 4 starts from: g's empty
// schedule over the options' pool.
func (sk *Skyline) origin(g *dataflow.Graph) []member {
	base := NewSchedule(g, sk.Opts.Pricing, sk.Opts.Spec)
	base.Types = sk.Opts.Types
	sk.sky[0] = append(sk.sky[0][:0], member{s: base, p: base.point()})
	return sk.sky[0]
}

// dropRefs clears the schedule pointers from the scratch, so that between
// runs a tenant's scratch keeps no schedule alive. Only the frontiers hold
// any: a candidate names its source by index.
func (sk *Skyline) dropRefs() {
	for i := range sk.sky {
		clear(sk.sky[i][:cap(sk.sky[i])])
	}
}

// step is one iteration of Alg. 4: the operator it places and whether it is
// an optional index build.
type step struct {
	id       dataflow.OpID
	optional bool
}

// steps returns the processing order. With optional ops, they sit in the
// same ready list as the dataflow operators (§5.3.2): they are available
// from the start, so they get considered interleaved with the dataflow ops
// — evenly spread here — and each is considered exactly once, against
// whatever idle gaps exist at that point. This is what makes the online
// algorithm schedule fewer builds than LP interleaving (Fig. 8): most
// fragmentation appears only after the whole dataflow is placed.
func steps(g *dataflow.Graph, withOptional bool) ([]step, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	var flowOps, optOps []dataflow.OpID
	for _, id := range topo {
		if g.Op(id).Optional {
			optOps = append(optOps, id)
		} else {
			flowOps = append(flowOps, id)
		}
	}
	var order []step
	if withOptional && len(optOps) > 0 && len(flowOps) > 0 {
		perFlow := float64(len(optOps)) / float64(len(flowOps))
		acc := 0.0
		oi := 0
		for _, id := range flowOps {
			order = append(order, step{id: id})
			acc += perFlow
			for acc >= 1 && oi < len(optOps) {
				order = append(order, step{id: optOps[oi], optional: true})
				oi++
				acc--
			}
		}
		for ; oi < len(optOps); oi++ {
			order = append(order, step{id: optOps[oi], optional: true})
		}
	} else {
		for _, id := range flowOps {
			order = append(order, step{id: id})
		}
		if withOptional {
			for _, id := range optOps {
				order = append(order, step{id: id, optional: true})
			}
		}
	}
	return order, nil
}

// expand writes step st's candidates over frontier sky into the scratch,
// in frontier order, which fixes the Pareto filter's order and every
// tie-break. A dataflow op is appended onto each used container and one
// fresh one (fresh containers are interchangeable), which may be leased as
// any pool type. A build is placed at the start of every idle run long
// enough for it (never extending a lease), and the frontier itself is
// kept (§5.3.2: "the previous skyline is kept and unioned with the set of
// schedules S before computing the new skyline"). The op's inputs are
// gathered once per member, for every move probed on it, and each move is
// probed in its slot of the buffer, dropped when illegal.
func (sk *Skyline) expand(sky []member, st step) []candidate {
	cands := sk.cands[:0]
	if st.optional {
		for i := range sky {
			cands = append(cands, candidate{p: sky[i].p, from: int32(i), kind: keep})
		}
		for i := range sky {
			src := sky[i].s
			need := src.Graph.Op(st.id).Time
			sk.in = src.gather(sk.in, st.id)
			sk.slots = src.appendIdleSlots(sk.slots[:0])
			for _, r := range mergeRuns(sk.slots) {
				if r.Size() < need-1e-9 {
					continue
				}
				cands = append(cands, candidate{})
				c := &cands[len(cands)-1]
				c.from, c.cont, c.typeIdx, c.kind = int32(i), int32(r.Container), -1, placeOp
				mv := move{op: st.id, cont: r.Container, typeIdx: -1, start: r.Start, place: true}
				if !src.probe(mv, &sk.in, c) {
					cands = cands[:len(cands)-1]
				}
			}
		}
	} else {
		types := len(sk.Opts.Types)
		for i := range sky {
			src := sky[i].s
			sk.in = src.gather(sk.in, st.id)
			used := src.NumSlots()
			for cont := 0; cont < min(used+1, sk.Opts.MaxContainers); cont++ {
				nTypes := 1
				if cont >= used && types > 1 {
					nTypes = types
				}
				for ti := 0; ti < nTypes; ti++ {
					typeIdx := -1
					if cont >= used && types > 0 {
						typeIdx = ti
					}
					// The slot's fields are written one by one, and the move
					// built in the call: a struct built aside and copied in
					// makes the copy's wide loads wait on narrow stores.
					cands = append(cands, candidate{})
					c := &cands[len(cands)-1]
					c.from, c.cont, c.typeIdx = int32(i), int32(cont), int32(typeIdx)
					if !src.probe(move{op: st.id, cont: cont, typeIdx: typeIdx}, &sk.in, c) {
						cands = cands[:len(cands)-1]
					}
				}
			}
		}
	}
	sk.cands = cands
	return cands
}

// advance runs the Pareto filter and frontier prune over the candidates
// of frontier sc.sky and materializes the survivors as the next frontier. A
// survivor that is the only one from its source takes the source over: it
// makes its move there instead of on a copy. That is safe because nothing
// reads a source once its survivors are chosen (pareto resolved every
// tie-break it needed), and a source that survives as itself, or has a
// second survivor, is copied from instead. The schedules of the dropped
// previous members go on the run's free list.
func (sk *Skyline) advance(sc *scope, cands []candidate, free *freeList) []member {
	prev := sc.sky
	next := prune(sk.fb.pareto(cands, sc), sk.Opts.MaxSkyline)
	held := slices.Grow(sk.held[:0], len(prev))[:len(prev)]
	clear(held)
	for i := range next {
		held[next[i].from]++
	}
	sk.held = held
	out := sk.sky[1][:0]
	for i := range next {
		c := &next[i]
		out = append(out, member{s: sc.materialize(c, free, held[c.from] == 1), p: c.p})
	}
	// Release in reverse frontier order. The list is LIFO and the next
	// iteration materializes fastest first, so the fastest survivor gets the
	// fastest dropped member's storage, the nearest to its own size.
	for i := len(prev) - 1; i >= 0; i-- {
		if s := prev[i].s; !holds(out, s) {
			free.put(s)
		}
	}
	sk.sky[0], sk.sky[1] = out, prev
	return out
}

// holds reports whether s is a member of frontier. A frontier has at most
// MaxSkyline members, so a scan is cheaper than building a set.
func holds(frontier []member, s *Schedule) bool {
	for i := range frontier {
		if frontier[i].s == s {
			return true
		}
	}
	return false
}

// Fastest returns the schedule with the smallest makespan from a skyline
// (the selection rule used in this work, §5.2: "the fastest schedule is
// chosen"). It returns nil for an empty skyline.
func Fastest(skyline []*Schedule) *Schedule {
	var best *Schedule
	for _, s := range skyline {
		if best == nil || s.Makespan() < best.Makespan() {
			best = s
		}
	}
	return best
}
