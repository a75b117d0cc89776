package sat_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/bitblast"
	"repro/internal/sat"
)

// hardInstance is the refutation that 2^40-87, a prime, has two factors
// above 1: out of reach of any test budget, with cheap conflicts. Its
// restarts are configured a million conflicts apart, so a solver that
// looked at its deadline or probe only at restart boundaries would run
// on for the whole conflict budget.
func hardInstance(t *testing.T) *sat.Solver {
	t.Helper()
	s := sat.New()
	s.Configure(sat.Config{RestartBase: 1 << 20})
	enc := bitblast.New(s)
	for _, c := range factorSystem(40, 1<<40-87) {
		if err := enc.Assert(c); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// hardBudget bounds every search below, so a solver that misses its
// deadline still returns (late) instead of hanging the test.
const hardBudget = 200_000

// TestProbePolledPerConflict: the interrupt probe runs after every
// conflict, so a probe that fires on its fifth call stops the search
// after four conflicts.
func TestProbePolledPerConflict(t *testing.T) {
	s := hardInstance(t)
	calls := 0
	st := s.SolveInterruptible(hardBudget, time.Time{}, func() bool {
		calls++
		return calls >= 5
	})
	if st != sat.Unknown {
		t.Fatalf("status %v, want unknown", st)
	}
	if c := s.Stats().Conflicts; c != 4 {
		t.Errorf("stopped after %d conflicts, want 4", c)
	}
}

// fastest runs solve on three fresh instances and returns the shortest
// wall time: the bound is a property of the solver, and a loaded host
// can only add to it.
func fastest(t *testing.T, solve func(*sat.Solver) sat.Status) time.Duration {
	t.Helper()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		s := hardInstance(t)
		start := time.Now()
		st := solve(s)
		d := time.Since(start)
		if st != sat.Unknown {
			t.Fatalf("hard instance decided (%v): not hard enough to test the limit", st)
		}
		best = min(best, d)
	}
	return best
}

// TestDeadlineBoundsHardSearch: a 50ms deadline stops the search within
// twice that.
func TestDeadlineBoundsHardSearch(t *testing.T) {
	const limit = 50 * time.Millisecond
	d := fastest(t, func(s *sat.Solver) sat.Status {
		return s.SolveDeadline(hardBudget, time.Now().Add(limit))
	})
	if d > 2*limit {
		t.Errorf("50ms deadline returned after %v", d)
	}
}

// TestInterruptBoundsHardSearch: a context cancelled after 50ms stops
// the search within twice that, through the interrupt probe.
func TestInterruptBoundsHardSearch(t *testing.T) {
	const limit = 50 * time.Millisecond
	d := fastest(t, func(s *sat.Solver) sat.Status {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(limit, cancel)
		defer timer.Stop()
		return s.SolveInterruptible(hardBudget, time.Time{}, func() bool { return ctx.Err() != nil })
	})
	if d > 2*limit {
		t.Errorf("search cancelled at 50ms returned after %v", d)
	}
}
