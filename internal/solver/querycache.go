package solver

import (
	"repro/internal/sharedcache"
	"repro/internal/sym"
	"repro/internal/warmstore"
)

// CachedResult is the seed-independent part of a bitvector Solve
// outcome, the unit a QueryCache tier stores. It is a pure function of
// the constraint slice and the conflict budget — the completion and
// minimization steps that depend on the caller's seed run after the
// cache — which is what lets replicas share entries without perturbing
// per-job verdicts.
type CachedResult struct {
	Status    Status
	Conflicts int64
	Model     map[string]uint64 // raw model; nil unless Status is sat
}

// QueryCache is a persistent or remote tier behind the in-memory LRU
// (see Cache.SetShared): the cross-replica sharedcache tier, the
// warm-start store, or a chain of both. Keys are the caller's business;
// Cache keys tiers with cross-process-stable digests ("d:" +
// sym.DigestKey + ":" + conflict budget), so a tier implementation must
// treat them as opaque JSON-safe strings. Implementations must be safe
// for concurrent use and must return Model maps the caller may keep.
type QueryCache interface {
	Lookup(key string) (CachedResult, bool)
	Store(key string, res CachedResult)
}

// SharedTier adapts a sharedcache.Tier (the cross-replica file-backed
// tier) into a QueryCache.
func SharedTier(t *sharedcache.Tier) QueryCache {
	if t == nil {
		return nil
	}
	return sharedTier{t}
}

type sharedTier struct{ t *sharedcache.Tier }

func (s sharedTier) Lookup(key string) (CachedResult, bool) {
	e, ok := s.t.Lookup(key)
	if !ok {
		return CachedResult{}, false
	}
	return CachedResult{Status: Status(e.Status), Conflicts: e.Conflicts, Model: e.Model}, true
}

func (s sharedTier) Store(key string, res CachedResult) {
	s.t.Store(sharedcache.Entry{
		Key:       key,
		Status:    int(res.Status),
		Conflicts: res.Conflicts,
		Model:     res.Model,
	})
}

// WarmQueries adapts the query half of a warmstore.Store into a
// QueryCache, so the warm-start store can sit in the same lookup chain
// as the shared tier. The digest-key namespace ("d:" prefix) is
// disjoint from the hex-StableKey names the portfolio writes, so one
// store serves both roles.
func WarmQueries(st *warmstore.Store) QueryCache {
	if st == nil {
		return nil
	}
	return warmQueries{st}
}

type warmQueries struct{ st *warmstore.Store }

func (w warmQueries) Lookup(key string) (CachedResult, bool) {
	e, ok := w.st.LookupQuery(key)
	if !ok {
		return CachedResult{}, false
	}
	return CachedResult{Status: Status(e.Status), Conflicts: e.Conflicts, Model: e.Model}, true
}

func (w warmQueries) Store(key string, res CachedResult) {
	w.st.PutQuery(warmstore.QueryEntry{
		Key:       key,
		Status:    int(res.Status),
		Conflicts: res.Conflicts,
		Model:     res.Model,
	})
}

// ChainQueryCaches composes tiers into one QueryCache consulted in
// order: Lookup returns the first tier's answer and backfills the tiers
// before it, Store writes through to every tier. Nil tiers are dropped;
// a chain of zero or one tier collapses to nil or the tier itself.
func ChainQueryCaches(tiers ...QueryCache) QueryCache {
	var live []QueryCache
	for _, t := range tiers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return queryChain(live)
}

type queryChain []QueryCache

func (c queryChain) Lookup(key string) (CachedResult, bool) {
	for i, t := range c {
		if res, ok := t.Lookup(key); ok {
			for j := 0; j < i; j++ {
				c[j].Store(key, res)
			}
			return res, true
		}
	}
	return CachedResult{}, false
}

func (c queryChain) Store(key string, res CachedResult) {
	for _, t := range c {
		t.Store(key, res)
	}
}

// validateShared converts a tier entry back into a raw in-memory
// result, distrusting satisfying models that do not satisfy the system:
// a digest collision or a foreign/corrupt tier must degrade to a miss,
// never to a wrong verdict.
func validateShared(res CachedResult, constraints []sym.Expr) (cachedResult, bool) {
	switch res.Status {
	case StatusUnsat, StatusUnknown:
		return cachedResult{status: res.Status, conflicts: res.Conflicts}, true
	case StatusSat:
		if !sym.Compile(constraints...).Satisfied(res.Model) {
			return cachedResult{}, false
		}
		return cachedResult{status: StatusSat, conflicts: res.Conflicts, model: res.Model}, true
	}
	return cachedResult{}, false
}
