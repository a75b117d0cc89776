package cliopts

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// WriteStats prints the engine work profile behind every CLI's -stats
// flag: rounds and frontier, solver queries and cache, interning,
// checkpointing, incremental and portfolio solving, coverage and
// fuzzing. Optional lines appear only when their counters are non-zero.
func WriteStats(w io.Writer, s core.Stats) {
	lookups := s.CacheHits + s.CacheMisses
	fmt.Fprintf(w, "stats: workers=%d rounds=%d peak-frontier=%d wall=%v\n",
		s.Workers, s.Rounds, s.PeakFrontier, s.WallTime)
	fmt.Fprintf(w, "stats: solver-queries=%d cache-hits=%d cache-misses=%d cache-evictions=%d",
		s.SolverQueries, s.CacheHits, s.CacheMisses, s.CacheEvictions)
	if lookups > 0 {
		fmt.Fprintf(w, " hit-rate=%.0f%%", 100*float64(s.CacheHits)/float64(lookups))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "stats: intern-hits=%d intern-misses=%d arena-nodes=%d",
		s.InternHits, s.InternMisses, s.ArenaNodes)
	if s.InternHits+s.InternMisses > 0 {
		fmt.Fprintf(w, " intern-hit-rate=%.0f%%", 100*s.InternHitRate())
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "stats: checkpoints=%d resumes=%d skipped-instructions=%d cow-faults=%d prefix-constraints-reused=%d\n",
		s.CheckpointsTaken, s.CheckpointResumes, s.InstructionsSkipped,
		s.PagesCOWFaulted, s.PrefixConstraintsReused)
	fmt.Fprintf(w, "stats: solver-sessions=%d incremental-checks=%d learned-retained=%d guard-literals=%d\n",
		s.SolverSessions, s.IncrementalChecks, s.LearnedClausesRetained, s.GuardLiterals)
	if s.PortfolioRaces > 0 || s.WarmQueryHits > 0 {
		fmt.Fprintf(w, "stats: portfolio-races=%d clauses-shared=%d clauses-imported=%d warm-hits=%d warm-clauses-seeded=%d\n",
			s.PortfolioRaces, s.PortfolioClausesShared, s.PortfolioClausesImported,
			s.WarmQueryHits, s.WarmClausesSeeded)
	}
	fmt.Fprintf(w, "stats: covered-edges=%d covered-blocks=%d new-edges-per-round=%v\n",
		s.CoveredEdges, s.CoveredBlocks, s.NewEdgesPerRound)
	if s.FuzzExecs > 0 || s.FuzzSeedsPromoted > 0 {
		fmt.Fprintf(w, "stats: fuzz-execs=%d fuzz-seeds-promoted=%d\n",
			s.FuzzExecs, s.FuzzSeedsPromoted)
	}
}
