package sat

import "math/rand"

// Config diversifies a solver instance for portfolio solving. The zero
// value reproduces the default (deterministic) configuration exactly, so
// existing call sites are unaffected. Configure before adding clauses:
// InvertPolarity seeds the saved phase of every variable.
type Config struct {
	// RandSeed seeds the random-branching source. Only consulted when
	// RandomBranchFreq > 0.
	RandSeed int64
	// RandomBranchFreq is the probability (0..1) that a decision picks a
	// uniformly random unassigned variable instead of the VSIDS top.
	RandomBranchFreq float64
	// RestartGeometric switches from Luby restarts to a geometric series
	// (base * 1.5^k), which favours long runs on hard single instances.
	RestartGeometric bool
	// RestartBase scales the first restart budget in conflicts
	// (default 100).
	RestartBase int64
	// InvertPolarity makes fresh variables branch true-first instead of
	// false-first, exploring the search tree mirror-imaged.
	InvertPolarity bool
}

// Configure applies a diversification config. Call it on a fresh or
// reset solver, before the instance's clauses are added; an encoder's
// constant-true unit may already be there. Variables already allocated
// get the saved phase they would have had if allocated after the call.
func (s *Solver) Configure(cfg Config) {
	s.cfg = cfg
	for v := range s.polarity {
		s.polarity[v] = cfg.InvertPolarity
	}
	if cfg.RandomBranchFreq > 0 {
		s.rng = rand.New(rand.NewSource(cfg.RandSeed))
	}
}

// SetLearnHook installs a callback invoked for every clause learned by
// conflict analysis, with the clause literals (caller-owned copy) and its
// LBD (literal block distance: the number of distinct decision levels
// among the literals, a standard quality measure — lower is better). The
// hook runs on the solver's goroutine; it must not call back into the
// solver. A nil hook disables export.
func (s *Solver) SetLearnHook(hook func(lits []Lit, lbd int)) {
	s.learnHook = hook
}

// ImportLearned queues clauses learned elsewhere for adoption. The
// clauses must be over this solver's variable numbering and implied by
// its formula (true for clauses exchanged between solvers encoding the
// identical constraint system, since bitblasting is deterministic). The
// queue drains at the next restart boundary, when the trail is at level
// 0 and watching new clauses is sound. Slices are copied; the caller may
// reuse them.
//
// ImportLearned itself is not goroutine-safe: call it from the solver's
// goroutine (e.g. inside the SolveInterruptible probe). It only queues;
// adoption waits for the next restart boundary whatever the decision
// level at the call.
func (s *Solver) ImportLearned(clauses [][]Lit) {
	for _, lits := range clauses {
		s.importQ = append(s.importQ, append([]Lit(nil), lits...))
	}
}

// drainImports adopts every queued import. Called only at decision
// level 0.
func (s *Solver) drainImports() {
	if len(s.importQ) == 0 {
		return
	}
	q := s.importQ
	s.importQ = nil
	for _, lits := range q {
		if !s.adoptClause(lits) {
			return
		}
	}
}

// adoptClause installs one imported clause at level 0, simplifying
// against the root-level assignment the same way AddClause does. The
// clause joins the learned database (subject to reduction). Returns
// false when the formula became unsatisfiable.
func (s *Solver) adoptClause(lits []Lit) bool {
	if !s.ok {
		return false
	}
	st := s.nextStamp()
	out := s.addBuf[:0]
	for _, l := range lits {
		if l < 0 || l.Var() >= len(s.assign) {
			return true // foreign variable: drop the clause
		}
		if s.litStamp[l.Not()] == st {
			return true // tautology
		}
		if s.litStamp[l] == st {
			continue
		}
		switch s.litValue(l) {
		case lTrue:
			if s.level[l.Var()] == 0 {
				return true // already satisfied at root level
			}
		case lFalse:
			if s.level[l.Var()] == 0 {
				continue // permanently false literal
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
		s.importedN++
		if s.litValue(out[0]) == lTrue {
			return true
		}
		s.enqueue(out[0], noReason)
		if s.propagate() != noReason {
			s.ok = false
			return false
		}
		return true
	}
	cr := s.alloc(out)
	s.learned = append(s.learned, learnedClause{cr: cr, act: s.clauseInc})
	s.importedN++
	s.watch(cr)
	return true
}

// exportLearned reports a freshly learned clause to the learn hook.
// Called during conflict analysis, before backtracking, while literal
// levels are still valid for the LBD computation.
func (s *Solver) exportLearned(lits []Lit) {
	if s.learnHook == nil {
		return
	}
	s.lbdStamp++
	lbd := 0
	for _, l := range lits {
		lv := int(s.level[l.Var()])
		for len(s.lbdSeen) <= lv {
			s.lbdSeen = append(s.lbdSeen, 0)
		}
		if s.lbdSeen[lv] != s.lbdStamp {
			s.lbdSeen[lv] = s.lbdStamp
			lbd++
		}
	}
	s.exportedN++
	s.learnHook(append([]Lit(nil), lits...), lbd)
}

// restartBudget returns the conflict budget for the i-th restart (1-based)
// under the configured restart policy.
func (s *Solver) restartBudget(i int64) int64 {
	base := s.cfg.RestartBase
	if base <= 0 {
		base = 100
	}
	if !s.cfg.RestartGeometric {
		return base * luby(i)
	}
	b := base
	for k := int64(1); k < i && b < 1<<40; k++ {
		b += b / 2 // geometric with ratio 1.5
	}
	return b
}
