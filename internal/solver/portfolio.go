package solver

import (
	"context"
	"encoding/hex"
	"strconv"
	"sync"
	"time"

	"repro/internal/exchange"
	"repro/internal/sat"
	"repro/internal/sym"
	"repro/internal/warmstore"
)

// PortfolioOptions configures a Portfolio.
type PortfolioOptions struct {
	// Options carries the per-Check budgets, FP mode, seed and random
	// seed, charged per Check exactly as in a Session.
	Options
	// Workers is the number of diversified fresh CDCL workers racing
	// alongside the incremental session (0 = DefaultPortfolioWorkers).
	// Worker 0 always runs the default configuration — bit-for-bit the
	// search fresh solving would run — so the portfolio reaches a
	// conclusive verdict whenever fresh solving would.
	Workers int
	// Cache, when non-nil, fronts Checks under the portfolio's own key
	// namespace (winners' results are not pure functions of the
	// constraint slice, so they never mix with fresh-mode entries).
	Cache *Cache
	// Exchange, when non-nil, shares learned clauses between the fresh
	// CDCL workers of this and concurrently racing queries on the same
	// constraint system. The incremental session does not participate:
	// its CNF numbering (guard literals interleaved with prefix gates)
	// differs from the deterministic fresh encoding.
	Exchange *exchange.Exchange
	// Warm, when non-nil, persists query verdicts and exchanged clauses
	// across processes, keyed by hex-encoded sym.StableKey (CanonicalKey
	// intern ids are process-local and cannot name anything on disk).
	Warm *warmstore.Store
}

// DefaultPortfolioWorkers is the fresh-CDCL worker count when
// PortfolioOptions.Workers is zero: the default-config worker plus two
// diversified rivals.
const DefaultPortfolioWorkers = 3

// PortfolioStats is the work profile of one Portfolio.
type PortfolioStats struct {
	// Checks counts Check calls, however they were decided.
	Checks int
	// Races counts Checks that actually raced workers (bitvector path,
	// no cache/warm hit).
	Races int
	// SessionWins and FreshWins count conclusive race verdicts by the
	// winning worker kind.
	SessionWins int
	FreshWins   int
	// CacheHits counts Checks answered from the in-process cache.
	CacheHits int
	// WarmQueryHits counts Checks answered from the warm-start store.
	WarmQueryHits int
	// WarmClausesSeeded counts clauses loaded from the warm-start store
	// into race exchanges.
	WarmClausesSeeded int
	// ClausesShared counts clauses this portfolio's workers published
	// into the exchange; ClausesImported counts adoptions by its workers
	// (exchange pulls plus warm seeds).
	ClausesShared   int64
	ClausesImported int64
	// Conflicts sums the winning worker's SAT conflicts per race (the
	// maximum across workers when no one wins).
	Conflicts int64
}

// Portfolio is a portfolio solving context over one growing constraint
// prefix, the racing counterpart of Session: Assert extends the prefix,
// Check races the incremental session against diversified fresh CDCL
// workers on prefix ∧ negated, first conclusive verdict wins and losers
// are cancelled through context plumbing down to sat.SolveInterruptible
// probes. Fresh workers share learned clauses through the Exchange.
//
// Verdict soundness: every worker decides the same system, so
// conclusive verdicts never disagree; which worker wins — and therefore
// which satisfying model is returned — is scheduling-dependent, but
// every returned model satisfies the system. Relative to fresh solving
// the only possible verdict difference is strengthening: a budget-bound
// Unknown turning conclusive because a diversified rival cracked the
// instance.
//
// Float-bearing queries are not raced: they run the single stochastic
// search fresh solving would run, with the same per-query seed, keeping
// float verdicts bit-identical to fresh mode.
//
// A Portfolio is not safe for concurrent use.
type Portfolio struct {
	ctx     context.Context
	opts    Options
	workers int
	cache   *Cache
	ex      *exchange.Exchange
	warm    *warmstore.Store

	sess   *Session
	prefix []sym.Expr

	stats PortfolioStats
}

// NewPortfolio opens a portfolio context. ctx cancellation makes
// in-flight and subsequent Checks give up with StatusUnknown.
func NewPortfolio(ctx context.Context, opts PortfolioOptions) *Portfolio {
	applyDefaults(&opts.Options)
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultPortfolioWorkers
	}
	return &Portfolio{
		ctx:     ctx,
		opts:    opts.Options,
		workers: workers,
		cache:   opts.Cache,
		ex:      opts.Exchange,
		warm:    opts.Warm,
		// The session races with no cache of its own: the portfolio owns
		// caching under its namespace.
		sess: NewSession(ctx, SessionOptions{Options: opts.Options}),
	}
}

// Assert appends constraints to the portfolio's path prefix.
func (p *Portfolio) Assert(constraints ...sym.Expr) {
	for _, c := range constraints {
		if c == nil {
			continue
		}
		p.prefix = append(p.prefix, c)
	}
	p.sess.Assert(constraints...)
}

// Prefix returns the constraints asserted so far (shared slice; do not
// mutate).
func (p *Portfolio) Prefix() []sym.Expr { return p.prefix }

// Stats returns the portfolio work profile so far.
func (p *Portfolio) Stats() PortfolioStats { return p.stats }

// SessionStats exposes the inner incremental worker's profile.
func (p *Portfolio) SessionStats() SessionStats { return p.sess.Stats() }

// Check decides prefix ∧ negated under the portfolio options.
func (p *Portfolio) Check(negated sym.Expr) (Result, error) {
	return p.CheckSeeded(negated, p.opts.RandSeed)
}

// diversifiedConfig returns the i-th fresh worker's solver
// configuration. Worker 0 is the exact default; rivals vary restart
// policy, branching randomness and phase polarity.
func diversifiedConfig(i int, randSeed int64) sat.Config {
	switch i % 4 {
	case 1:
		return sat.Config{InvertPolarity: true, RestartGeometric: true, RestartBase: 150}
	case 2:
		return sat.Config{RandSeed: randSeed + int64(i), RandomBranchFreq: 0.02}
	case 3:
		return sat.Config{RandSeed: randSeed + int64(i), RandomBranchFreq: 0.05,
			InvertPolarity: true, RestartGeometric: true, RestartBase: 80}
	default:
		return sat.Config{}
	}
}

// CheckSeeded is Check with a per-query random seed for the stochastic
// float search and worker diversification, mirroring the per-query seeds
// the engine derives in fresh mode.
func (p *Portfolio) CheckSeeded(negated sym.Expr, randSeed int64) (Result, error) {
	if negated == nil {
		return Result{}, ErrNoConstraints
	}
	p.stats.Checks++
	opts := p.opts
	opts.RandSeed = randSeed

	// Mirror SolveContext's routing order exactly: constant-false
	// shortcut, then float (single canonical search, not raced), then
	// the raced bitvector path.
	system := append(append([]sym.Expr{}, p.prefix...), negated)
	if hasConstFalse(system) {
		return Result{Status: StatusUnsat}, nil
	}
	if sym.HasFloat(system...) {
		return solveFloat(p.ctx, system, opts), nil
	}

	var key string
	if p.cache != nil {
		key = sym.CanonicalKey(system) + "|" + strconv.FormatInt(opts.MaxConflicts, 10) + "|pf"
		if res, ok := p.cache.lookup(key); ok {
			p.stats.CacheHits++
			return finishBV(res, system, opts), nil
		}
	}

	var stableKey, warmQueryKey string
	if p.warm != nil || p.ex != nil {
		stableKey = hex.EncodeToString([]byte(sym.StableKey(system)))
	}
	if p.warm != nil {
		warmQueryKey = stableKey + "|" + strconv.FormatInt(opts.MaxConflicts, 10)
		if e, ok := p.warm.LookupQuery(warmQueryKey); ok {
			if res, ok := warmResult(e, system); ok {
				p.stats.WarmQueryHits++
				if p.cache != nil {
					p.cache.store(key, cachedResult{status: res.status, conflicts: res.conflicts, model: cloneEnv(res.model)})
				}
				return finishBV(res, system, opts), nil
			}
		}
	}

	res, timedOut, err := p.race(system, opts, stableKey, randSeed)
	if err != nil {
		return Result{}, err
	}
	if p.cache != nil && !timedOut {
		p.cache.store(key, cachedResult{status: res.status, conflicts: res.conflicts, model: cloneEnv(res.model)})
	}
	if p.warm != nil && (res.status == StatusSat || res.status == StatusUnsat) {
		p.warm.PutQuery(warmstore.QueryEntry{
			Key:       warmQueryKey,
			Status:    int(res.status),
			Conflicts: res.conflicts,
			Model:     cloneEnv(res.model),
		})
	}
	return finishBV(res, system, opts), nil
}

// warmResult converts a persisted query entry back into a raw result,
// distrusting satisfying models that no longer satisfy the system (a
// stale or foreign store must degrade to a miss, never to a wrong
// verdict).
func warmResult(e warmstore.QueryEntry, system []sym.Expr) (cachedResult, bool) {
	switch Status(e.Status) {
	case StatusUnsat:
		return cachedResult{status: StatusUnsat, conflicts: e.Conflicts}, true
	case StatusSat:
		if !sym.Compile(system...).Satisfied(e.Model) {
			return cachedResult{}, false
		}
		return cachedResult{status: StatusSat, conflicts: e.Conflicts, model: e.Model}, true
	}
	return cachedResult{}, false
}

// raceOutcome is one worker's report.
type raceOutcome struct {
	res      cachedResult
	timedOut bool
	session  bool
	err      error
	imported int64 // clauses this worker adopted from the exchange
	shared   int64 // clauses this worker got admitted into the exchange
}

// race runs the incremental session and the diversified fresh workers on
// system, returning the first conclusive verdict (cancelling the rest)
// or the merged Unknown.
func (p *Portfolio) race(system []sym.Expr, opts Options, stableKey string, randSeed int64) (cachedResult, bool, error) {
	p.stats.Races++
	negated := system[len(system)-1]

	// Seed this query's exchange pool from the warm-start store once.
	exKey := ""
	if p.ex != nil {
		exKey = sym.CanonicalKey(system)
		if p.warm != nil {
			if cs := p.warm.Clauses(stableKey); len(cs) > 0 {
				p.stats.WarmClausesSeeded += p.ex.Seed(exKey, cs)
			}
		}
	}

	raceCtx, cancel := context.WithCancel(p.ctx)
	defer cancel()

	results := make(chan raceOutcome, p.workers+1)
	var wg sync.WaitGroup

	// Worker 0: the incremental session. It is single-threaded state
	// shared with future Checks, so the race joins it before returning.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.sess.SetInterrupt(func() bool { return raceCtx.Err() != nil })
		defer p.sess.SetInterrupt(nil)
		r, err := p.sess.CheckSeeded(negated, randSeed)
		results <- raceOutcome{
			res:      cachedResult{status: r.Status, conflicts: r.Conflicts, model: r.Model},
			timedOut: r.Status == StatusUnknown,
			session:  true,
			err:      err,
		}
	}()

	for i := 0; i < p.workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := diversifiedConfig(i, randSeed)
			st, model, conflicts, timedOut, imported, shared, err :=
				p.freshWorker(raceCtx, system, opts, cfg, exKey, i)
			results <- raceOutcome{
				res:      cachedResult{status: st, conflicts: conflicts, model: model},
				timedOut: timedOut,
				err:      err,
				imported: imported,
				shared:   shared,
			}
		}(i)
	}

	var unknown cachedResult
	anyTimedOut := false
	var firstErr error
	winner := raceOutcome{}
	got := 0
	for got < p.workers+1 {
		o := <-results
		got++
		p.stats.ClausesImported += o.imported
		p.stats.ClausesShared += o.shared
		switch {
		case o.err != nil:
			if firstErr == nil {
				firstErr = o.err
			}
		case o.res.status == StatusSat || o.res.status == StatusUnsat:
			if winner.res.status == 0 {
				winner = o
				cancel() // losers exit at their next probe
			}
		default:
			anyTimedOut = anyTimedOut || o.timedOut
			if o.res.conflicts > unknown.conflicts {
				unknown.conflicts = o.res.conflicts
			}
		}
	}
	wg.Wait()

	// Persist this query's pooled clauses for future processes.
	if p.ex != nil && p.warm != nil {
		if cs := p.ex.Snapshot(exKey); len(cs) > 0 {
			p.warm.PutClauses(stableKey, cs)
		}
	}

	if winner.res.status != 0 {
		if winner.session {
			p.stats.SessionWins++
		} else {
			p.stats.FreshWins++
		}
		p.stats.Conflicts += winner.res.conflicts
		return winner.res, false, nil
	}
	if firstErr != nil {
		return cachedResult{}, false, firstErr
	}
	unknown.status = StatusUnknown
	p.stats.Conflicts += unknown.conflicts
	// A session Unknown is always flagged timedOut (its budget may bind
	// earlier than the fresh workers'); the race is conflict-budget
	// deterministic only if every fresh worker exhausted deterministically.
	return unknown, anyTimedOut, nil
}

// freshWorker encodes and solves system on a recycled diversified CDCL
// workspace, publishing learned clauses to — and adopting peers' clauses
// from — the exchange at restart boundaries.
func (p *Portfolio) freshWorker(ctx context.Context, system []sym.Expr, opts Options,
	cfg sat.Config, exKey string, origin int) (st Status, model map[string]uint64,
	conflicts int64, timedOut bool, imported, shared int64, err error) {

	clock := startQuery(ctx, opts.Timeout)
	defer clock.stop()
	expired := clock.expired

	ws, st, timedOut, err := encodeSystem(system, cfg, expired)
	if ws == nil {
		return st, nil, 0, timedOut, 0, 0, err
	}
	defer ws.release()
	s := ws.s

	cursor := 0
	if p.ex != nil {
		s.SetLearnHook(func(lits []sat.Lit, lbd int) {
			// Runs on this worker's goroutine: shared is goroutine-local.
			if p.ex.Publish(exKey, origin, lits, lbd) {
				shared++
			}
		})
		// Peer clauses are queued here and from the probe, both on the
		// solver's goroutine; the solver adopts them at restart
		// boundaries, at decision level 0.
		var pulled [][]sat.Lit
		pulled, cursor = p.ex.Pull(exKey, origin, cursor)
		s.ImportLearned(pulled)
	}
	probe := func() bool {
		if expired() {
			return true
		}
		if p.ex != nil {
			var pulled [][]sat.Lit
			pulled, cursor = p.ex.Pull(exKey, origin, cursor)
			if len(pulled) > 0 {
				s.ImportLearned(pulled)
			}
		}
		return false
	}

	res := s.SolveInterruptible(opts.MaxConflicts, time.Time{}, probe)
	st, model, timedOut = ws.verdict(res, expired)
	stats := s.Stats()
	return st, model, stats.Conflicts, timedOut, stats.Imported, shared, nil
}
