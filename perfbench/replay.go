package main

import (
	"sort"
	"time"

	"repro/internal/bitblast"
	"repro/internal/core"
	"repro/internal/gos"
	"repro/internal/sat"
	"repro/internal/solver"
	"repro/internal/sym"
	"repro/internal/symexec"
)

// Limits on the round-one replay, so that a task whose first queries run
// to the clock (sha1, srand) does not dominate the traced run.
const (
	replayMaxQueries  = 24
	replayQueryBudget = 250 * time.Millisecond
)

// layerTotals accumulates the replay's per-layer work.
type layerTotals struct {
	gosRunS, gosSteps            float64
	symexecRunS                  float64
	constraints, tainted         float64
	assertS, gates               float64
	satSolveS, clauses           float64
	conflicts, props             float64
	replayQueries, replayedTasks float64
}

// replayRoundOne runs a task's first round layer by layer from its seed
// input, the way the engine does: one concrete traced run, one symbolic
// pass, then each branch negation bit-blasted and searched on a fresh
// SAT instance. Every layer call is timed.
func replayRoundOne(tr *tracer, t *engineTask, lt *layerTotals) {
	root := tr.open()
	rootStart := time.Now()
	defer func() { tr.close(root, "bench.replay", 0, t.id, rootStart, time.Now()) }()
	lt.replayedTasks++

	caps := t.caps
	steps := caps.StepBudget
	if steps <= 0 {
		steps = core.DefaultStepBudget
	}
	cfg := t.seed.Config()
	cfg.Record = true
	cfg.MaxSteps = steps
	cfg.WatchAddrs = []uint64{t.addr}

	start := time.Now()
	m, err := gos.New(t.img, cfg)
	if err != nil {
		return
	}
	res := m.Run()
	end := time.Now()
	tr.add("gos.run", root, t.id, start, end)
	lt.gosRunS += end.Sub(start).Seconds()
	lt.gosSteps += float64(res.Steps)
	if res.Trace == nil || res.Hit(t.addr) {
		return
	}

	opts := caps.Sym
	opts.Env = symexec.EnvInfo{TimeNow: cfg.TimeNow, Pid: cfg.Pid}
	for f := range cfg.Files {
		opts.Env.KnownFiles = append(opts.Env.KnownFiles, f)
	}
	sort.Strings(opts.Env.KnownFiles)
	start = time.Now()
	sr := symexec.Run(t.img, res.Trace, res.Argv, cfg.Argv, opts)
	end = time.Now()
	tr.add("symexec.run", root, t.id, start, end)
	lt.symexecRunS += end.Sub(start).Seconds()
	lt.constraints += float64(len(sr.Constraints))
	lt.tainted += float64(len(sr.TaintedIdx))
	if sr.Crashed {
		return
	}

	conflicts := caps.SolverConflicts
	if conflicts <= 0 {
		conflicts = solver.DefaultMaxConflicts
	}
	queries := 0
	for i, pc := range sr.Constraints {
		if pc.Kind == symexec.KindAssume {
			continue
		}
		if queries == replayMaxQueries {
			break
		}
		system := make([]sym.Expr, 0, i+1)
		for j := 0; j < i; j++ {
			system = append(system, sr.Constraints[j].Expr)
		}
		system = append(system, sym.NewBoolNot(pc.Expr))
		if sym.HasFloat(system...) {
			continue
		}
		queries++
		s := sat.New()
		enc := bitblast.New(s)
		start = time.Now()
		ok := true
		for _, c := range system {
			if enc.Assert(c) != nil {
				ok = false
				break
			}
		}
		end = time.Now()
		tr.add("bitblast.assert", root, t.id, start, end)
		lt.assertS += end.Sub(start).Seconds()
		lt.gates += float64(enc.Gates())
		lt.clauses += float64(s.NumClauses())
		if !ok {
			continue
		}
		start = time.Now()
		s.SolveDeadline(conflicts, start.Add(replayQueryBudget))
		end = time.Now()
		tr.add("sat.solve", root, t.id, start, end)
		lt.satSolveS += end.Sub(start).Seconds()
		st := s.Stats()
		lt.conflicts += float64(st.Conflicts)
		lt.props += float64(st.Propagations)
	}
	lt.replayQueries += float64(queries)
}
