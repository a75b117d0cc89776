package sat_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bitblast"
	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/gos"
	"repro/internal/sat"
	"repro/internal/sym"
	"repro/internal/symexec"
	"repro/internal/tools"
)

var update = flag.Bool("update", false, "rewrite testdata/trajectory.golden")

// trajectory is one instance's search fingerprint: any change to the
// order of decisions, propagations, learned clauses or database
// reduction moves at least one of these numbers.
type trajectory struct {
	name   string
	status sat.Status
	st     sat.Stats
	model  uint64
}

func (t trajectory) String() string {
	return fmt.Sprintf("%s status=%s conflicts=%d props=%d learned=%d model=%016x",
		t.name, t.status, t.st.Conflicts, t.st.Propagations, t.st.Learned, t.model)
}

// fingerprint hashes the full model of a Sat verdict (0 otherwise).
func fingerprint(name string, s *sat.Solver, st sat.Status) trajectory {
	var h uint64
	if st == sat.Sat {
		f := fnv.New64a()
		for v := 0; v < s.NumVars(); v++ {
			if s.Value(v) {
				f.Write([]byte{1})
			} else {
				f.Write([]byte{0})
			}
		}
		h = f.Sum64()
	}
	return trajectory{name: name, status: st, st: s.Stats(), model: h}
}

// pigeonholeInto adds PHP(n, n-1) to s.
func pigeonholeInto(s *sat.Solver, n int) {
	m := n - 1
	p := make([][]int, n)
	for i := range p {
		p[i] = make([]int, m)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < n; i++ {
		lits := make([]sat.Lit, m)
		for j := 0; j < m; j++ {
			lits[j] = sat.MkLit(p[i][j], false)
		}
		s.AddClause(lits...)
	}
	for j := 0; j < m; j++ {
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				s.AddClause(sat.MkLit(p[a][j], true), sat.MkLit(p[b][j], true))
			}
		}
	}
}

// factorSystem is a·b = n over w-bit factors with 1 < a <= b, the
// product at double width so it cannot wrap.
func factorSystem(w int, n uint64) []sym.Expr {
	a := sym.NewVar("a", w)
	b := sym.NewVar("b", w)
	one := sym.NewConst(1, w)
	prod := sym.NewBin(sym.OpMul, sym.NewZExt(a, 2*w), sym.NewZExt(b, 2*w))
	return []sym.Expr{
		sym.NewBin(sym.OpEq, prod, sym.NewConst(n, 2*w)),
		sym.NewBin(sym.OpUlt, one, a),
		sym.NewBin(sym.OpUlt, one, b),
		sym.NewBin(sym.OpUle, a, b),
	}
}

// solvers supplies the solver for each golden instance: a fresh one, or
// the same recycled one after Reset.
type solvers func() *sat.Solver

// freshSolvers builds a new solver per instance.
func freshSolvers() *sat.Solver { return sat.New() }

// reusedSolvers hands out one solver, reset before every instance.
func reusedSolvers() solvers {
	s := sat.New()
	return func() *sat.Solver {
		s.Reset()
		return s
	}
}

// blastSolve bit-blasts system onto a new (optionally configured)
// solver from src and searches it under a conflict budget.
func blastSolve(t *testing.T, src solvers, name string, system []sym.Expr, budget int64, cfg *sat.Config) trajectory {
	t.Helper()
	s := src()
	if cfg != nil {
		s.Configure(*cfg)
	}
	enc := bitblast.New(s)
	for _, c := range system {
		if err := enc.Assert(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return fingerprint(name, s, s.Solve(budget))
}

// tableIIQueries replays a bomb's first round under a profile the way
// the engine does: one recorded concrete run from the benign seed, one
// symbolic pass, then every branch negation (prefix ∧ ¬pc) as a
// float-free system, keeping the deepest limit of them.
func tableIIQueries(t *testing.T, bomb string, p tools.Profile, limit int) [][]sym.Expr {
	t.Helper()
	b, ok := bombs.ByName(bomb)
	if !ok {
		t.Fatalf("no bomb %q", bomb)
	}
	cfg := b.Benign.Config()
	cfg.Record = true
	cfg.MaxSteps = core.DefaultStepBudget
	m, err := gos.New(b.Image(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	opts := p.Caps.Sym
	opts.Env = symexec.EnvInfo{TimeNow: cfg.TimeNow, Pid: cfg.Pid}
	for f := range cfg.Files {
		opts.Env.KnownFiles = append(opts.Env.KnownFiles, f)
	}
	sort.Strings(opts.Env.KnownFiles)
	sr := symexec.Run(b.Image(), res.Trace, res.Argv, cfg.Argv, opts)
	var out [][]sym.Expr
	for i, pc := range sr.Constraints {
		if pc.Kind == symexec.KindAssume {
			continue
		}
		system := make([]sym.Expr, 0, i+1)
		for j := 0; j < i; j++ {
			system = append(system, sr.Constraints[j].Expr)
		}
		system = append(system, sym.NewBoolNot(pc.Expr))
		if !sym.HasFloat(system...) {
			out = append(out, system)
		}
	}
	if len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// trajectories runs every golden instance on solvers from src.
func trajectories(t *testing.T, src solvers) []trajectory {
	var out []trajectory
	for _, n := range []int{5, 6, 7} {
		s := src()
		pigeonholeInto(s, n)
		out = append(out, fingerprint(fmt.Sprintf("pigeonhole-%d", n), s, s.Solve(0)))
	}
	{
		s := src()
		const n = 2000
		for j := 0; j < n; j++ {
			s.NewVar()
		}
		for j := 0; j+1 < n; j++ {
			s.AddClause(sat.MkLit(j, true), sat.MkLit(j+1, false))
		}
		s.AddClause(sat.MkLit(0, false))
		out = append(out, fingerprint("propagation-chain", s, s.Solve(0)))
	}
	factors := []struct {
		name   string
		w      int
		n      uint64
		budget int64
	}{
		{"factor-semiprime-24", 24, 16768681, 6_000},
		{"factor-prime-18", 18, 262139, 4_000},
		{"factor-prime-20", 20, 1048573, 4_000},
		{"factor-semiprime-26", 26, 67239919, 10_000},
	}
	diversified := []sat.Config{
		{RandSeed: 7, RandomBranchFreq: 0.02, InvertPolarity: true},
		{RestartGeometric: true, RestartBase: 50},
	}
	for _, f := range factors {
		system := factorSystem(f.w, f.n)
		out = append(out, blastSolve(t, src, f.name, system, f.budget, nil))
		for i := range diversified {
			out = append(out, blastSolve(t, src, fmt.Sprintf("%s/config%d", f.name, i), system, f.budget, &diversified[i]))
		}
	}
	for _, q := range []struct {
		bomb  string
		tool  tools.Profile
		limit int
	}{
		{"arglen", tools.Reference(), 3},
		{"array1", tools.Reference(), 3},
		{"jump", tools.Reference(), 3},
		{"stack", tools.Triton(), 3},
		{"aes", tools.Reference(), 3},
		{"srand", tools.Reference(), 3},
	} {
		for i, system := range tableIIQueries(t, q.bomb, q.tool, q.limit) {
			out = append(out, blastSolve(t, src, fmt.Sprintf("%s/%s/q%d", q.bomb, q.tool.Name(), i), system, 2_000, nil))
		}
	}
	out = append(out, incremental(t, src)...)
	return append(out, exchanged(t, src))
}

// incremental decides a run of factoring queries on one persistent
// instance, each negation behind a guard literal that is retired after
// its check — the session discipline, covering assumption-level Unsat
// and the final-conflict analysis.
func incremental(t *testing.T, src solvers) []trajectory {
	s := src()
	enc := bitblast.New(s)
	base := factorSystem(18, 0)
	for _, c := range base[1:] {
		if err := enc.Assert(c); err != nil {
			t.Fatal(err)
		}
	}
	var out []trajectory
	for i, n := range []uint64{262139, 261121, 1000, 262147, 65537} {
		g, err := enc.AssertGuarded(factorSystem(18, n)[0])
		if err != nil {
			t.Fatal(err)
		}
		st := s.SolveAssuming([]sat.Lit{g}, 3_000, time.Time{}, nil)
		tr := fingerprint(fmt.Sprintf("incremental/q%d", i), s, st)
		tr.name += fmt.Sprintf(" final=%d", len(s.FinalConflict()))
		out = append(out, tr)
		s.AddClause(g.Not())
	}
	return out
}

// exchanged runs a diversified solver that imports the clauses a default
// solver learned on the same system — the portfolio's clause exchange.
// Bit-blasting is deterministic, so the two encodings number their
// variables alike; the exporter finishes before the importer is built,
// which lets both come from one recycled solver.
func exchanged(t *testing.T, src solvers) trajectory {
	system := factorSystem(20, 1048573)
	assertAll := func(s *sat.Solver) {
		enc := bitblast.New(s)
		for _, c := range system {
			if err := enc.Assert(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	var learned [][]sat.Lit
	a := src()
	a.SetLearnHook(func(lits []sat.Lit, lbd int) {
		if lbd <= 4 {
			learned = append(learned, lits)
		}
	})
	assertAll(a)
	a.Solve(1_000)
	exported := a.Stats().Exported
	b := src()
	b.Configure(sat.Config{RestartGeometric: true, RestartBase: 50})
	assertAll(b)
	b.ImportLearned(learned)
	tr := fingerprint("exchange", b, b.Solve(4_000))
	tr.name += fmt.Sprintf(" exported=%d imported=%d", exported, b.Stats().Imported)
	return tr
}

// TestTrajectoryGolden pins the CDCL search trajectory: every instance
// must reproduce the recorded verdict, conflict, propagation and learned
// counts and model exactly. A change to the core's data layout must not
// move any of them; a deliberate change to the search (heuristics,
// restarts, reduction policy) re-records with -update and says so.
func TestTrajectoryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every golden instance")
	}
	got := trajectories(t, freshSolvers)
	if *update {
		var b strings.Builder
		for _, tr := range got {
			b.WriteString(tr.String())
			b.WriteByte('\n')
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, got)
}

// TestTrajectoryGoldenReused replays every golden instance on one
// solver, reset between instances, and requires the fresh-solver
// trajectories exactly: Reset must leave nothing the search can read.
// The replay starts after a dirty instance — a learn hook, a
// diversified Configure and imported clauses — so those must be reset
// too.
func TestTrajectoryGoldenReused(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every golden instance")
	}
	src := reusedSolvers()
	dirty := exchanged(t, src)
	got := trajectories(t, src)
	if last := got[len(got)-1]; last != dirty {
		t.Errorf("exchange instance moved between runs:\n first %s\n again %s", dirty, last)
	}
	checkGolden(t, got)
}

const golden = "testdata/trajectory.golden"

// checkGolden compares trajectories line by line with the golden file.
func checkGolden(t *testing.T, trs []trajectory) {
	t.Helper()
	f, err := os.Open(golden)
	if err != nil {
		t.Fatalf("%v (run TestTrajectoryGolden with -update to create)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(trs) != len(want) {
		t.Fatalf("%d instances, golden has %d", len(trs), len(want))
	}
	for i, tr := range trs {
		if got := tr.String(); got != want[i] {
			t.Errorf("trajectory moved:\n got  %s\n want %s", got, want[i])
		}
	}
}
