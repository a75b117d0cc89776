package solver

import (
	"context"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/internal/bitblast"
	"repro/internal/sat"
	"repro/internal/sym"
)

// atoiChain is the digit-chain system of BenchmarkAtoiChainSolve: two
// digits whose decimal value is 42.
func atoiChain() []sym.Expr {
	b0 := sym.NewZExt(sym.NewVar("b0", 8), 64)
	b1 := sym.NewZExt(sym.NewVar("b1", 8), 64)
	d0 := sym.NewBin(sym.OpSub, b0, sym.NewConst('0', 64))
	d1 := sym.NewBin(sym.OpSub, b1, sym.NewConst('0', 64))
	v := sym.NewBin(sym.OpAdd, sym.NewBin(sym.OpMul, d0, sym.NewConst(10, 64)), d1)
	return []sym.Expr{
		sym.NewBin(sym.OpUle, sym.NewConst('0', 64), b0),
		sym.NewBin(sym.OpUle, b0, sym.NewConst('9', 64)),
		sym.NewBin(sym.OpUle, sym.NewConst('0', 64), b1),
		sym.NewBin(sym.OpUle, b1, sym.NewConst('9', 64)),
		sym.NewBin(sym.OpEq, v, sym.NewConst(42, 64)),
	}
}

// maxPooledQueryAllocs bounds the allocations of a repeated solveBV
// query on atoiChain once a recycled workspace is warm: the encoder's
// per-node bit vectors and the model, about 160. A fresh solver and
// encoder per query add the growth of every buffer, about 280 in all,
// so a change that stops recycling fails here.
const maxPooledQueryAllocs = 200

func TestPooledQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	cs := atoiChain()
	opts := Options{MaxConflicts: 1_000}
	query := func() {
		st, _, _, _, err := solveBV(context.Background(), cs, opts)
		if err != nil || st != StatusSat {
			t.Fatalf("status %v err %v", st, err)
		}
	}
	query() // warm the pool
	if n := testing.AllocsPerRun(50, query); n > maxPooledQueryAllocs {
		t.Errorf("warm solveBV query: %.0f allocations, want at most %d", n, maxPooledQueryAllocs)
	}
}

// TestPooledQueriesConcurrent solves from several goroutines at once
// through the shared pool: every answer must equal the sequential one,
// whichever workspace a goroutine is handed.
func TestPooledQueriesConcurrent(t *testing.T) {
	systems := [][]sym.Expr{
		atoiChain(),
		buildBVSystem([]byte{2, 2, 0, 1, 3, 4, 2, 0, 4, 1, 2, 1, 3, 3, 0, 2}),
		buildBVSystem([]byte{1, 2, 0, 0, 2, 8, 2, 0, 3, 5, 3, 1, 4, 0, 0, 3, 3, 2, 1, 0}),
	}
	type answer struct {
		st        Status
		model     map[string]uint64
		conflicts int64
	}
	solve := func(system []sym.Expr) answer {
		st, model, conflicts, _, err := solveBV(context.Background(), system, Options{MaxConflicts: 10_000})
		if err != nil {
			t.Error(err)
		}
		return answer{st, model, conflicts}
	}
	want := make([]answer, len(systems))
	for i, system := range systems {
		want[i] = solve(system)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for i, system := range systems {
					got := solve(system)
					if got.st != want[i].st || got.conflicts != want[i].conflicts || !maps.Equal(got.model, want[i].model) {
						t.Errorf("system %d: got %+v, sequential %+v", i, got, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// solveFresh is the unpooled reference: a new solver and encoder for
// one query, configured and encoded the way the portfolio's fresh
// workers were before workspaces were recycled.
func solveFresh(t *testing.T, system []sym.Expr, cfg sat.Config, budget int64) (sat.Status, map[string]uint64, sat.Stats) {
	t.Helper()
	s := sat.New()
	s.Configure(cfg)
	enc := bitblast.New(s)
	for _, c := range system {
		if err := enc.Assert(c); err != nil {
			t.Fatal(err)
		}
	}
	st := s.SolveInterruptible(budget, time.Time{}, nil)
	var model map[string]uint64
	if st == sat.Sat {
		model = enc.Model()
	}
	return st, model, s.Stats()
}

// FuzzPooledEquivalence runs a sequence of systems — each prefix of a
// generated path with its next constraint negated, then the whole path —
// through recycled workspaces and through a fresh solver per system,
// alternating the portfolio's diversified configurations. Both must
// agree on status, model and the full search statistics: a recycled
// workspace must make exactly the search a fresh one makes.
func FuzzPooledEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 1})
	f.Add([]byte{0, 5, 0, 0, 3, 2, 0, 2, 3, 0, 1, 2})
	f.Add([]byte{2, 2, 0, 1, 3, 4, 2, 0, 4, 1, 2, 1, 3, 3, 0, 2})
	f.Add([]byte{1, 2, 0, 0, 2, 8, 2, 0, 3, 5, 3, 1, 4, 0, 0, 3, 3, 2, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		cs := buildBVSystem(data)
		if len(cs) == 0 {
			return
		}
		var systems [][]sym.Expr
		for i, c := range cs {
			systems = append(systems, append(append([]sym.Expr{}, cs[:i]...), sym.NewBoolNot(c)))
		}
		systems = append(systems, cs)
		const budget = 500_000
		never := func() bool { return false }
		for i, system := range systems {
			cfg := diversifiedConfig(i, int64(len(data)))
			wantSt, wantModel, wantStats := solveFresh(t, system, cfg, budget)

			if cfg == (sat.Config{}) {
				// The default configuration is solveBV's own query.
				st, model, conflicts, _, err := solveBV(context.Background(), system, Options{MaxConflicts: budget})
				if err != nil {
					t.Fatal(err)
				}
				if want := statusOf(wantSt); st != want || conflicts != wantStats.Conflicts || !maps.Equal(model, wantModel) {
					t.Fatalf("system %d: solveBV %v/%d/%v, fresh %v/%d/%v",
						i, st, conflicts, model, want, wantStats.Conflicts, wantModel)
				}
				continue
			}
			ws, st, _, err := encodeSystem(system, cfg, never)
			if ws == nil {
				t.Fatalf("system %d: encoding decided %v (err %v)", i, st, err)
			}
			res := ws.s.SolveInterruptible(budget, time.Time{}, nil)
			_, model, _ := ws.verdict(res, never)
			stats := ws.s.Stats()
			ws.release()
			if res != wantSt || stats != wantStats || !maps.Equal(model, wantModel) {
				t.Fatalf("system %d config %+v: pooled %v %+v %v, fresh %v %+v %v",
					i, cfg, res, stats, model, wantSt, wantStats, wantModel)
			}
		}
	})
}

// statusOf maps a CDCL verdict to the query status solveBV reports.
func statusOf(st sat.Status) Status {
	switch st {
	case sat.Sat:
		return StatusSat
	case sat.Unsat:
		return StatusUnsat
	}
	return StatusUnknown
}

// TestFPByteGroupOrderDeterministic solves a float system over two byte
// groups many times with one seed: the numeric-rendering move draws a
// group by index, so the group order — and with it the model — must not
// follow map iteration.
func TestFPByteGroupOrderDeterministic(t *testing.T) {
	digit := func(b sym.Expr) []sym.Expr {
		return []sym.Expr{
			sym.NewBin(sym.OpUle, sym.NewConst('0', 8), b),
			sym.NewBin(sym.OpUle, b, sym.NewConst('9', 8)),
		}
	}
	asFloat := func(b sym.Expr) sym.Expr { return sym.NewI2F(sym.NewZExt(b, 64)) }
	a0, a1 := sym.NewVar("argv1[0]", 8), sym.NewVar("argv1[1]", 8)
	b0, b1 := sym.NewVar("argv2[0]", 8), sym.NewVar("argv2[1]", 8)
	cs := append(append(digit(a0), digit(b0)...),
		sym.NewBin(sym.OpFLt, asFloat(a0), asFloat(b0)),
		sym.NewBin(sym.OpFLt, asFloat(a1), asFloat(b1)))
	var first map[string]uint64
	for i := 0; i < 20; i++ {
		res, err := Solve(cs, Options{FP: FPSearch, RandSeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusSat {
			t.Fatalf("run %d: status %v", i, res.Status)
		}
		if i == 0 {
			first = res.Model
		} else if !maps.Equal(res.Model, first) {
			t.Fatalf("run %d: model %v, run 0 found %v", i, res.Model, first)
		}
	}
}
