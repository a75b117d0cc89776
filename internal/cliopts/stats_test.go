package cliopts

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestWriteStatsOptionalLines: the portfolio and fuzz lines appear only
// when their counters moved; the fixed lines always do.
func TestWriteStatsOptionalLines(t *testing.T) {
	var quiet strings.Builder
	WriteStats(&quiet, core.Stats{Rounds: 3, SolverQueries: 2, CacheMisses: 2})
	got := quiet.String()
	for _, want := range []string{"rounds=3", "solver-queries=2", "hit-rate=0%", "covered-edges=0"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	if strings.Contains(got, "portfolio-races") || strings.Contains(got, "fuzz-execs") {
		t.Errorf("optional lines printed for zero counters:\n%s", got)
	}
	var busy strings.Builder
	WriteStats(&busy, core.Stats{PortfolioRaces: 4, FuzzExecs: 9})
	if got := busy.String(); !strings.Contains(got, "portfolio-races=4") || !strings.Contains(got, "fuzz-execs=9") {
		t.Errorf("optional lines missing:\n%s", got)
	}
}
