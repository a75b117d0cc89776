// Package sat implements a CDCL boolean satisfiability solver with
// two-watched-literal propagation, VSIDS branching, first-UIP clause
// learning and Luby restarts. It is the decision core under the bitvector
// solver, playing the role MiniSat/STP/Z3 play for the paper's tools.
//
// Clauses live MiniSat-style in one flat arena: a header word followed
// by the literals inline. Watchers, reasons and the clause lists hold
// uint32 offsets into it, and the watch lists are ranges of one shared
// watcher pool, so the solver's clause database is a handful of
// pointer-free slices — no per-clause or per-literal heap object,
// nothing for the garbage collector to scan.
package sat

import (
	"math"
	"math/rand"
	"time"
)

// Lit is a literal: variable v asserted positively is v<<1, negated is
// v<<1|1.
type Lit int32

// MkLit builds a literal from a variable index and sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Status is a solver verdict.
type Status int

// Verdicts.
const (
	Sat Status = iota + 1
	Unsat
	Unknown // budget exhausted
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	case Unknown:
		return "unknown"
	}
	return "invalid"
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// cref is a clause reference: the offset of the clause's header in the
// arena. The header word holds the clause size; the literals follow.
type cref uint32

// noReason marks a decision, an assumption or a level-0 unit.
const noReason cref = math.MaxUint32

// learnedClause is a learned clause and its activity, fixed at creation.
type learnedClause struct {
	cr  cref
	act float64
}

type watcher struct {
	cr      cref
	blocker Lit
}

// wlist is one literal's watch list: n watchers at pool[off:off+n], with
// room for cap before the list must move.
type wlist struct {
	off, n, cap uint32
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	mem     []Lit // the clause arena
	wasted  int   // arena words held by deleted clauses
	clauses []cref
	learned []learnedClause
	watches []wlist   // indexed by literal
	pool    []watcher // backing store of every watch list

	assign   []lbool
	level    []int32
	reason   []cref
	trail    []Lit
	trailLim []int
	qhead    int

	// Scratch reused across calls: conflict-analysis marks (all false
	// between calls), the learned-clause buffer, and AddClause's
	// per-literal dedup stamps with the simplified-clause buffer.
	seen     []bool
	learnBuf []Lit
	litStamp []uint32
	stamp    uint32
	addBuf   []Lit

	activity []float64
	varInc   float64
	order    *varHeap
	polarity []bool

	clauseInc float64

	ok        bool
	conflicts int64
	props     int64
	restarts  int64
	learnedN  int64 // learned clauses created
	deletedN  int64 // learned clauses dropped by DB reduction

	// Portfolio diversification and clause exchange (see share.go).
	cfg       Config
	rng       *rand.Rand
	learnHook func(lits []Lit, lbd int)
	importQ   [][]Lit
	importedN int64 // clauses adopted via ImportLearned
	exportedN int64 // clauses reported to the learn hook
	lbdSeen   []int64
	lbdStamp  int64

	// model is the assignment snapshot taken at the last Sat verdict.
	// Search state is unwound to level 0 before Solve returns, so the
	// instance stays usable for further AddClause/Solve calls; Value
	// reads the snapshot, not the live trail.
	model []lbool

	// finalConf is the subset of the last SolveAssuming call's
	// assumptions responsible for an assumption-level Unsat.
	finalConf []Lit
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, clauseInc: 1, ok: true}
	s.order = &varHeap{}
	return s
}

// Reset returns the solver to exactly the state New leaves it in —
// no variables, no clauses, zero counters, default configuration, no
// learn hook, no queued imports — while keeping every buffer's capacity,
// so a recycled solver decides its next instance without regrowing the
// arena, the watcher pool or the per-variable arrays. The search a reset
// solver runs is identical to a fresh one's: nothing it reads survives
// beyond spare capacity, which is always written before it is read.
func (s *Solver) Reset() {
	s.mem = s.mem[:0]
	s.wasted = 0
	s.clauses = s.clauses[:0]
	s.learned = s.learned[:0]
	s.watches = s.watches[:0]
	s.pool = s.pool[:0]

	s.assign = s.assign[:0]
	s.level = s.level[:0]
	s.reason = s.reason[:0]
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0

	s.seen = s.seen[:0]
	s.learnBuf = s.learnBuf[:0]
	s.litStamp = s.litStamp[:0]
	s.stamp = 0
	s.addBuf = s.addBuf[:0]

	s.activity = s.activity[:0]
	s.varInc = 1
	s.order.act = s.activity
	s.order.heap = s.order.heap[:0]
	s.order.indices = s.order.indices[:0]
	s.polarity = s.polarity[:0]

	s.clauseInc = 1
	s.ok = true
	s.conflicts, s.props, s.restarts, s.learnedN, s.deletedN = 0, 0, 0, 0, 0

	s.cfg = Config{}
	s.rng = nil
	s.learnHook = nil
	s.importQ = nil
	s.importedN, s.exportedN = 0, 0
	s.lbdSeen = s.lbdSeen[:0]
	s.lbdStamp = 0

	s.model = s.model[:0]
	s.finalConf = s.finalConf[:0]
}

// MemBytes returns the bytes held by the solver's buffers at their
// current capacities: what a recycled solver keeps alive between
// instances.
func (s *Solver) MemBytes() int {
	const word = 4 // Lit, cref, int32, uint32
	n := word * (cap(s.mem) + cap(s.clauses) + cap(s.reason) + cap(s.trail) +
		cap(s.learnBuf) + cap(s.litStamp) + cap(s.addBuf) + cap(s.finalConf) +
		cap(s.order.heap) + cap(s.order.indices) + cap(s.level))
	n += 16 * cap(s.learned)
	n += 12 * cap(s.watches)
	n += 8 * (cap(s.pool) + cap(s.activity) + cap(s.trailLim) + cap(s.lbdSeen))
	n += cap(s.assign) + cap(s.seen) + cap(s.polarity) + cap(s.model)
	return n
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(grow(s.assign, 1), lUndef)
	s.level = append(grow(s.level, 1), 0)
	s.reason = append(grow(s.reason, 1), noReason)
	s.seen = append(grow(s.seen, 1), false)
	s.litStamp = append(grow(s.litStamp, 2), 0, 0)
	s.activity = append(grow(s.activity, 1), 0)
	s.order.act = s.activity
	s.polarity = append(grow(s.polarity, 1), s.cfg.InvertPolarity)
	s.watches = append(grow(s.watches, 2), wlist{}, wlist{})
	s.order.push(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assign) }

// NumClauses returns the number of problem clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

func (s *Solver) litValue(l Lit) lbool { return value(s.assign, l) }

// lits returns the literals of clause cr, aliasing the arena: valid
// until the next clause allocation.
func (s *Solver) lits(cr cref) []Lit {
	n := cref(s.mem[cr])
	return s.mem[cr+1 : cr+1+n : cr+1+n]
}

// alloc appends a clause to the arena and returns its reference.
func (s *Solver) alloc(lits []Lit) cref {
	cr := cref(len(s.mem))
	s.mem = append(grow(s.mem, 1+len(lits)), Lit(len(lits)))
	s.mem = append(s.mem, lits...)
	return cr
}

// grow returns xs with room for n more elements. Past a few hundred
// elements append grows a slice by only 1.25x; the solver's arrays grow
// to hundreds of thousands of elements per query, so grow doubles
// instead, copying each element about once rather than four times.
func grow[T any](xs []T, n int) []T {
	if len(xs)+n <= cap(xs) {
		return xs
	}
	g := make([]T, len(xs), max(len(xs)+n, 2*cap(xs), 16))
	copy(g, xs)
	return g
}

// nextStamp opens a fresh literal-dedup generation.
func (s *Solver) nextStamp() uint32 {
	s.stamp++
	if s.stamp == 0 {
		clear(s.litStamp)
		s.stamp = 1
	}
	return s.stamp
}

// AddClause adds a clause. It returns false if the formula became
// trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	// Simplify: drop duplicate/false literals, detect tautology.
	st := s.nextStamp()
	out := s.addBuf[:0]
	for _, l := range lits {
		if s.litStamp[l.Not()] == st {
			return true // tautology
		}
		if s.litStamp[l] == st {
			continue
		}
		switch s.litValue(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			if s.level[l.Var()] == 0 {
				continue // permanently false
			}
		}
		s.litStamp[l] = st
		out = append(out, l)
	}
	s.addBuf = out
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if s.litValue(out[0]) == lFalse {
			s.ok = false
			return false
		}
		s.enqueue(out[0], noReason)
		if s.propagate() != noReason {
			s.ok = false
			return false
		}
		return true
	}
	cr := s.alloc(out)
	s.clauses = append(s.clauses, cr)
	s.watch(cr)
	return true
}

func (s *Solver) watch(cr cref) {
	l0, l1 := s.mem[cr+1], s.mem[cr+2]
	s.addWatch(l0.Not(), watcher{cr: cr, blocker: l1})
	s.addWatch(l1.Not(), watcher{cr: cr, blocker: l0})
}

// watchFirst is the capacity a watch list starts with.
const watchFirst = 4

// addWatch appends w to l's watch list. A full list moves to a fresh
// range of twice its capacity at the end of the pool, keeping its order;
// the range it leaves is not reused, which bounds the pool by twice the
// lists' capacities, as doubling slices would be.
func (s *Solver) addWatch(l Lit, w watcher) {
	wl := &s.watches[l]
	if wl.n == wl.cap {
		c := max(watchFirst, 2*wl.cap)
		off := uint32(len(s.pool))
		s.pool = grow(s.pool, int(c))[:len(s.pool)+int(c)]
		copy(s.pool[off:], s.pool[wl.off:wl.off+wl.n])
		wl.off, wl.cap = off, c
	}
	s.pool[wl.off+wl.n] = w
	wl.n++
}

func (s *Solver) enqueue(l Lit, from cref) {
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate runs unit propagation to fixpoint, returning the conflicting
// clause or noReason.
func (s *Solver) propagate() cref {
	// assign and mem are not reallocated during propagation (enqueue
	// only writes assign's elements); the pool can be, by addWatch, so
	// it is re-read after every addWatch.
	assign, mem, pool := s.assign, s.mem, s.pool
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.props++
		falseLit := p.Not()
		// p's list is filtered in place: kept watchers are written back
		// at j. addWatch never targets p (it watches a non-false
		// literal), so only the pool's address can change under the loop.
		wl := &s.watches[p]
		i, end := wl.off, wl.off+wl.n
		j := i
		for i < end {
			w := pool[i]
			i++
			if value(assign, w.blocker) == lTrue {
				pool[j] = w
				j++
				continue
			}
			cr := w.cr
			n := cref(mem[cr])
			lits := mem[cr+1 : cr+1+n : cr+1+n]
			// Ensure lits[1] is the false literal p.Not().
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && value(assign, first) == lTrue {
				pool[j] = watcher{cr: cr, blocker: first}
				j++
				continue
			}
			// Find a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if value(assign, lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.addWatch(lits[1].Not(), watcher{cr: cr, blocker: first})
					pool = s.pool
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflict.
			pool[j] = w
			j++
			if value(assign, first) == lFalse {
				// Keep the unvisited watchers and stop.
				j += uint32(copy(pool[j:end], pool[i:end]))
				wl.n = j - wl.off
				s.qhead = len(s.trail)
				return cr
			}
			s.enqueue(first, cr)
		}
		wl.n = j - wl.off
	}
	return noReason
}

// value is a literal's value under the assignment assign.
func value(assign []lbool, l Lit) lbool {
	a := assign[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if (a == lTrue) != l.Neg() {
		return lTrue
	}
	return lFalse
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

func (s *Solver) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = noReason
		s.order.push(v)
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (with the asserting literal first) and the backtrack level. The
// clause aliases a solver-owned buffer, valid until the next conflict.
func (s *Solver) analyze(conflict cref) ([]Lit, int) {
	learnt := append(s.learnBuf[:0], 0) // slot 0 for the asserting literal
	seen := s.seen
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	c := conflict

	for {
		start := 0
		if p != -1 {
			start = 1
		}
		lits := s.lits(c)
		for i := start; i < len(lits); i++ {
			q := lits[i]
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal to expand.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[v]
	}
	learnt[0] = p.Not()
	// The tail literals are the only marks left standing.
	for _, q := range learnt[1:] {
		seen[q.Var()] = false
	}
	s.learnBuf = learnt

	// Compute backtrack level: max level among tail literals.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	return learnt, btLevel
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.clauseInc /= 0.999
}

func (s *Solver) pickBranchVar() int {
	if s.rng != nil && s.rng.Float64() < s.cfg.RandomBranchFreq {
		// Random branching: a few probes into the variable array; fall
		// through to VSIDS when every probe lands on an assigned var.
		for try := 0; try < 8 && len(s.assign) > 0; try++ {
			if v := s.rng.Intn(len(s.assign)); s.assign[v] == lUndef {
				return v
			}
		}
	}
	for s.order.size() > 0 {
		v := s.order.pop()
		if s.assign[v] == lUndef {
			return v
		}
	}
	return -1
}

func (s *Solver) reduceLearned() {
	if len(s.learned) < 4000 {
		return
	}
	// Drop the learned clauses below the mean activity, keeping reasons
	// and binaries.
	lim := meanAct(s.learned)
	kept := s.learned[:0]
	for _, l := range s.learned {
		n := int(s.mem[l.cr])
		if l.act >= lim || s.isReason(l.cr) || n <= 2 {
			kept = append(kept, l)
		} else {
			s.unwatch(l.cr)
			s.wasted += 1 + n
			s.deletedN++
		}
	}
	s.learned = kept
	if s.wasted > len(s.mem)/5 {
		s.compact()
	}
}

// meanAct is the mean activity of the learned clauses: the reduction
// threshold.
func meanAct(ls []learnedClause) float64 {
	var sum float64
	for _, l := range ls {
		sum += l.act
	}
	return sum / float64(len(ls))
}

func (s *Solver) isReason(cr cref) bool {
	v := s.mem[cr+1].Var()
	return s.assign[v] != lUndef && s.reason[v] == cr
}

func (s *Solver) unwatch(cr cref) {
	for _, l := range [2]Lit{s.mem[cr+1].Not(), s.mem[cr+2].Not()} {
		wl := &s.watches[l]
		ws := s.pool[wl.off : wl.off+wl.n]
		for i := range ws {
			if ws[i].cr == cr {
				ws[i] = ws[len(ws)-1]
				wl.n--
				break
			}
		}
	}
}

// compact copies the live clauses into a fresh arena, reclaiming the
// words of deleted ones, and rewrites every reference. Clause order,
// literal order and watch-list order are all preserved, so the search
// cannot tell a compaction happened.
func (s *Solver) compact() {
	mem := make([]Lit, 0, len(s.mem)-s.wasted)
	// Each live clause (every one has at least two literals) leaves its
	// new offset in its old first-literal slot.
	move := func(cr cref) cref {
		n := cref(s.mem[cr])
		to := cref(len(mem))
		mem = append(mem, s.mem[cr:cr+1+n]...)
		s.mem[cr+1] = Lit(to)
		return to
	}
	forward := func(cr cref) cref { return cref(s.mem[cr+1]) }
	for i := range s.clauses {
		s.clauses[i] = move(s.clauses[i])
	}
	for i := range s.learned {
		s.learned[i].cr = move(s.learned[i].cr)
	}
	for _, wl := range s.watches {
		ws := s.pool[wl.off : wl.off+wl.n]
		for i := range ws {
			ws[i].cr = forward(ws[i].cr)
		}
	}
	for v, r := range s.reason {
		if r != noReason {
			s.reason[v] = forward(r)
		}
	}
	s.mem = mem
	s.wasted = 0
}

// luby computes the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<uint(k))-1 {
			return int64(1) << uint(k-1)
		}
		if i >= int64(1)<<uint(k-1) && i < (int64(1)<<uint(k))-1 {
			return luby(i - (int64(1) << uint(k-1)) + 1)
		}
	}
}

// Solve searches for a model. maxConflicts bounds the number of
// conflicts spent in this call before giving up with Unknown (<= 0
// means a large default); on a persistent instance the budget is
// per-call, not cumulative across calls.
func (s *Solver) Solve(maxConflicts int64) Status {
	return s.SolveDeadline(maxConflicts, time.Time{})
}

// SolveDeadline is Solve with an additional wall-clock deadline (zero
// means none); exceeding it returns Unknown, modeling the analysis
// timeouts that produce the paper's E outcomes.
func (s *Solver) SolveDeadline(maxConflicts int64, deadline time.Time) Status {
	return s.SolveInterruptible(maxConflicts, deadline, nil)
}

// SolveInterruptible is SolveDeadline with an additional interruption
// probe. The deadline and the probe are polled after every conflict and
// at every restart boundary. When interrupted returns true the search
// gives up with Unknown, which is how a cancelled analysis context stops
// a long-running query without waiting for its conflict or wall-clock
// budget. A nil probe means none.
func (s *Solver) SolveInterruptible(maxConflicts int64, deadline time.Time, interrupted func() bool) Status {
	return s.SolveAssuming(nil, maxConflicts, deadline, interrupted)
}

// SolveAssuming searches for a model under the given assumption
// literals, MiniSat-style: each pending assumption is enqueued as the
// decision of its own level before any free decision is made. On Unsat
// caused by the assumptions (rather than the base formula) the solver
// records the responsible subset — see FinalConflict — and remains
// usable: learned clauses, variable activities and saved phases are
// retained for the next call, which is what makes repeated calls on a
// persistent instance incremental. Search state is unwound to level 0
// before returning, so clauses may be added between calls; on Sat the
// assignment is snapshotted first and served by Value.
func (s *Solver) SolveAssuming(assumptions []Lit, maxConflicts int64, deadline time.Time, interrupted func() bool) Status {
	s.finalConf = s.finalConf[:0]
	if !s.ok {
		return Unsat
	}
	limit := int64(math.MaxInt64)
	if maxConflicts > 0 && s.conflicts < math.MaxInt64-maxConflicts {
		limit = s.conflicts + maxConflicts
	}
	stop := func() bool {
		return (!deadline.IsZero() && time.Now().After(deadline)) ||
			(interrupted != nil && interrupted())
	}
	restart := int64(0)
	for s.conflicts < limit {
		if stop() {
			s.backtrack(0)
			return Unknown
		}
		// The trail is at level 0 here: the only sound point to adopt
		// clauses imported from portfolio peers.
		s.drainImports()
		if !s.ok {
			return Unsat
		}
		restart++
		s.restarts++
		budget := s.restartBudget(restart)
		switch st := s.search(budget, limit, assumptions, stop); st {
		case Sat:
			s.saveModel()
			s.backtrack(0)
			return Sat
		case Unsat:
			s.backtrack(0)
			return Unsat
		}
		s.backtrack(0)
	}
	s.backtrack(0)
	return Unknown
}

// FinalConflict returns the subset of the last SolveAssuming call's
// assumptions that jointly made the formula unsatisfiable. It is empty
// when the last verdict was not Unsat, or when the base formula itself
// is unsatisfiable independent of any assumption. The returned slice is
// valid until the next Solve* call.
func (s *Solver) FinalConflict() []Lit { return s.finalConf }

// search runs CDCL until a verdict, the restart budget, the call's
// conflict limit, or stop — polled after every conflict, so an expired
// deadline or a cancelled context costs at most one conflict's work.
func (s *Solver) search(budget, limit int64, assumptions []Lit, stop func() bool) Status {
	local := int64(0)
	for {
		conflict := s.propagate()
		if conflict != noReason {
			s.conflicts++
			local++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(conflict)
			s.exportLearned(learnt)
			s.backtrack(btLevel)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], noReason)
			} else {
				cr := s.alloc(learnt)
				s.learned = append(s.learned, learnedClause{cr: cr, act: s.clauseInc})
				s.learnedN++
				s.watch(cr)
				s.enqueue(learnt[0], cr)
			}
			s.decayActivities()
			if local >= budget || s.conflicts >= limit || stop() {
				return Unknown
			}
			continue
		}
		s.reduceLearned()
		if s.decisionLevel() < len(assumptions) {
			// Extend the trail with the next pending assumption before
			// any free decision.
			p := assumptions[s.decisionLevel()]
			switch s.litValue(p) {
			case lTrue:
				// Already satisfied: open a dummy level so decision
				// level k always covers assumptions [0, k).
				s.newDecisionLevel()
			case lFalse:
				s.analyzeFinal(p)
				return Unsat
			default:
				s.newDecisionLevel()
				s.enqueue(p, noReason)
			}
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			return Sat
		}
		s.newDecisionLevel()
		s.enqueue(MkLit(v, !s.polarity[v]), noReason)
	}
}

// analyzeFinal computes the final conflict for the falsified assumption
// p: p itself plus every assumption decision reachable from ~p in the
// implication graph. The base formula stays satisfiable as far as the
// solver knows, so ok is left untouched.
func (s *Solver) analyzeFinal(p Lit) {
	s.finalConf = append(s.finalConf[:0], p)
	if s.decisionLevel() == 0 {
		return
	}
	seen := s.seen
	seen[p.Var()] = true
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if !seen[v] {
			continue
		}
		if cr := s.reason[v]; cr == noReason {
			if s.level[v] > 0 {
				s.finalConf = append(s.finalConf, s.trail[i])
			}
		} else {
			lits := s.lits(cr)
			for j := 1; j < len(lits); j++ {
				if s.level[lits[j].Var()] > 0 {
					seen[lits[j].Var()] = true
				}
			}
		}
		seen[v] = false
	}
	// Every mark above level 0 was cleared on the trail walk; p's own
	// variable may sit at level 0.
	seen[p.Var()] = false
}

// saveModel snapshots the current (total) assignment so Value stays
// meaningful after the search state is unwound and more clauses are
// added.
func (s *Solver) saveModel() {
	if cap(s.model) < len(s.assign) {
		s.model = make([]lbool, len(s.assign))
	}
	s.model = s.model[:len(s.assign)]
	copy(s.model, s.assign)
}

// Value returns the assignment of variable v in the last Sat result.
// Variables allocated after that result read as false.
func (s *Solver) Value(v int) bool { return v < len(s.model) && s.model[v] == lTrue }

// Stats is the solver work profile. Conflicts and Propagations are
// cumulative over the instance's lifetime; on a persistent instance,
// difference them around a call to charge that call.
type Stats struct {
	Conflicts    int64
	Propagations int64
	Restarts     int64
	Learned      int64 // learned clauses created
	Deleted      int64 // learned clauses dropped by DB reduction
	Imported     int64 // clauses adopted from portfolio peers
	Exported     int64 // learned clauses reported to the learn hook
}

// LearnedLive returns the learned clauses currently retained.
func (st Stats) LearnedLive() int64 { return st.Learned - st.Deleted }

// Stats returns the solver work counters.
func (s *Solver) Stats() Stats {
	return Stats{
		Conflicts:    s.conflicts,
		Propagations: s.props,
		Restarts:     s.restarts,
		Learned:      s.learnedN,
		Deleted:      s.deletedN,
		Imported:     s.importedN,
		Exported:     s.exportedN,
	}
}

// varHeap is a max-heap of variables ordered by activity.
type varHeap struct {
	act     []float64 // the solver's activity array (re-pointed on growth)
	heap    []int32
	indices []int32 // variable -> heap position, -1 when absent
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) push(v int) {
	for len(h.indices) <= v {
		h.indices = append(grow(h.indices, 1), -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(grow(h.heap, 1), int32(v))
	h.indices[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.indices[last] = 0
		h.down(0)
	}
	return int(v)
}

func (h *varHeap) update(v int) {
	if len(h.indices) > v && h.indices[v] >= 0 {
		h.up(int(h.indices[v]))
	}
}

func (h *varHeap) up(i int) {
	heap, idx, act := h.heap, h.indices, h.act
	v := heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !(act[v] > act[heap[p]]) {
			break
		}
		heap[i] = heap[p]
		idx[heap[i]] = int32(i)
		i = p
	}
	heap[i] = v
	idx[v] = int32(i)
}

func (h *varHeap) down(i int) {
	heap, idx, act := h.heap, h.indices, h.act
	v := heap[i]
	for {
		l := 2*i + 1
		if l >= len(heap) {
			break
		}
		c := l
		if r := l + 1; r < len(heap) && act[heap[r]] > act[heap[l]] {
			c = r
		}
		if !(act[heap[c]] > act[v]) {
			break
		}
		heap[i] = heap[c]
		idx[heap[i]] = int32(i)
		i = c
	}
	heap[i] = v
	idx[v] = int32(i)
}
