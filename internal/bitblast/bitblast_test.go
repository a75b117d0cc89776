package bitblast

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sat"
	"repro/internal/sym"
)

// solveEq asserts expr == want and returns (status, model).
func solveEq(t *testing.T, expr sym.Expr, want uint64) (sat.Status, map[string]uint64) {
	t.Helper()
	s := sat.New()
	e := New(s)
	c := sym.NewBin(sym.OpEq, expr, sym.NewConst(want, expr.Width()))
	if err := e.Assert(c); err != nil {
		t.Fatalf("Assert: %v", err)
	}
	st := s.Solve(0)
	if st == sat.Sat {
		return st, e.Model()
	}
	return st, nil
}

func TestSolveSimpleAdd(t *testing.T) {
	x := sym.NewVar("x", 64)
	e := sym.NewBin(sym.OpAdd, x, sym.NewConst(5, 64))
	st, m := solveEq(t, e, 12)
	if st != sat.Sat || m["x"] != 7 {
		t.Errorf("x+5==12: status %v, x=%d", st, m["x"])
	}
}

func TestSolveMul(t *testing.T) {
	x := sym.NewVar("x", 64)
	e := sym.NewBin(sym.OpMul, x, sym.NewConst(10, 64))
	st, m := solveEq(t, e, 420)
	if st != sat.Sat {
		t.Fatalf("status %v", st)
	}
	if m["x"]*10 != 420 {
		t.Errorf("x=%d does not satisfy 10x=420", m["x"])
	}
}

func TestUnsatDetected(t *testing.T) {
	x := sym.NewVar("x", 8)
	// x*2 == 1 has no solution mod 256 (even != odd).
	e := sym.NewBin(sym.OpMul, x, sym.NewConst(2, 8))
	st, _ := solveEq(t, e, 1)
	if st != sat.Unsat {
		t.Errorf("2x==1 mod 256: status %v, want unsat", st)
	}
}

func TestSquareMod8Unsat(t *testing.T) {
	// x^2 == -1 (mod 2^8) is unsat: squares are 0,1,4 mod 8.
	x := sym.NewVar("x", 8)
	e := sym.NewBin(sym.OpMul, x, x)
	st, _ := solveEq(t, e, 0xff)
	if st != sat.Unsat {
		t.Errorf("x^2 == -1: status %v, want unsat", st)
	}
}

func TestFloatRejected(t *testing.T) {
	x := sym.NewVar("x", 64)
	e := sym.NewBin(sym.OpFAdd, x, x)
	s := sat.New()
	enc := New(s)
	err := enc.Assert(sym.NewBin(sym.OpEq, e, sym.NewConst(0, 64)))
	if err == nil {
		t.Fatal("float expression should be rejected")
	}
}

func TestAtoiChain(t *testing.T) {
	// Model atoi("??") == 42 over two digit bytes:
	// (b0-'0')*10 + (b1-'0') == 42 with digit range constraints.
	b0 := sym.NewZExt(sym.NewVar("b0", 8), 64)
	b1 := sym.NewZExt(sym.NewVar("b1", 8), 64)
	d0 := sym.NewBin(sym.OpSub, b0, sym.NewConst('0', 64))
	d1 := sym.NewBin(sym.OpSub, b1, sym.NewConst('0', 64))
	v := sym.NewBin(sym.OpAdd, sym.NewBin(sym.OpMul, d0, sym.NewConst(10, 64)), d1)

	s := sat.New()
	e := New(s)
	mustAssert := func(c sym.Expr) {
		t.Helper()
		if err := e.Assert(c); err != nil {
			t.Fatal(err)
		}
	}
	mustAssert(sym.NewBin(sym.OpEq, v, sym.NewConst(42, 64)))
	for _, b := range []sym.Expr{b0, b1} {
		mustAssert(sym.NewBin(sym.OpUle, sym.NewConst('0', 64), b))
		mustAssert(sym.NewBin(sym.OpUle, b, sym.NewConst('9', 64)))
	}
	if st := s.Solve(0); st != sat.Sat {
		t.Fatalf("status %v", st)
	}
	m := e.Model()
	if m["b0"] != '4' || m["b1"] != '2' {
		t.Errorf("model = %q %q, want '4' '2'", m["b0"], m["b1"])
	}
}

func TestDivider(t *testing.T) {
	x := sym.NewVar("x", 64)
	q := sym.NewBin(sym.OpUDiv, x, sym.NewConst(10, 64))
	r := sym.NewBin(sym.OpURem, x, sym.NewConst(10, 64))
	s := sat.New()
	e := New(s)
	if err := e.Assert(sym.NewBin(sym.OpEq, q, sym.NewConst(12, 64))); err != nil {
		t.Fatal(err)
	}
	if err := e.Assert(sym.NewBin(sym.OpEq, r, sym.NewConst(3, 64))); err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(0); st != sat.Sat {
		t.Fatalf("status %v", st)
	}
	if m := e.Model(); m["x"] != 123 {
		t.Errorf("x = %d, want 123", m["x"])
	}
}

// opPool lists the integer ops exercised by the random property test.
var opPool = []sym.BinOp{
	sym.OpAdd, sym.OpSub, sym.OpMul, sym.OpAnd, sym.OpOr, sym.OpXor,
	sym.OpShl, sym.OpLShr, sym.OpAShr, sym.OpUDiv, sym.OpURem,
	sym.OpSDiv, sym.OpSRem,
}

func randExpr(rng *rand.Rand, depth, width int) sym.Expr {
	if depth == 0 {
		switch rng.Intn(3) {
		case 0:
			return sym.NewConst(rng.Uint64(), width)
		case 1:
			return sym.NewZExt(sym.NewVar("a", 8), width)
		default:
			return sym.NewZExt(sym.NewVar("b", 8), width)
		}
	}
	a := randExpr(rng, depth-1, width)
	b := randExpr(rng, depth-1, width)
	switch rng.Intn(8) {
	case 0:
		return sym.NewNot(a)
	case 1:
		return sym.NewNeg(a)
	case 2:
		cond := sym.NewBin(sym.OpUlt, a, b)
		return sym.NewITE(cond, a, b)
	default:
		op := opPool[rng.Intn(len(opPool))]
		if (op == sym.OpShl || op == sym.OpLShr || op == sym.OpAShr) && width != 64 && width != 8 {
			op = sym.OpAdd
		}
		return sym.NewBin(op, a, b)
	}
}

// TestQuickBlastMatchesEval is the core soundness property: for a random
// expression and random inputs, asserting expr == Eval(expr, env) must be
// satisfiable, and the returned model must evaluate to the same value.
func TestQuickBlastMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(av, bv uint8) bool {
		width := []int{8, 16, 32, 64}[rng.Intn(4)]
		expr := randExpr(rng, 2, width)
		env := map[string]uint64{"a": uint64(av), "b": uint64(bv)}
		want := sym.Eval(expr, env)

		s := sat.New()
		e := New(s)
		// Pin the variables to the env values and check expr == want.
		for name, v := range env {
			c := sym.NewBin(sym.OpEq, sym.NewVar(name, 8), sym.NewConst(v, 8))
			if err := e.Assert(c); err != nil {
				return false
			}
		}
		if err := e.Assert(sym.NewBin(sym.OpEq, expr, sym.NewConst(want, width))); err != nil {
			return false
		}
		if st := s.Solve(200000); st != sat.Sat {
			t.Logf("width=%d expr=%s want=%#x status not sat", width, expr, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickModelSatisfies checks the dual: solve expr == K for an
// arbitrary reachable K and confirm the model reproduces K under Eval.
func TestQuickModelSatisfies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(av, bv uint8) bool {
		width := 64
		expr := randExpr(rng, 2, width)
		// Choose a reachable target by evaluating at a random point.
		env := map[string]uint64{"a": uint64(av), "b": uint64(bv)}
		target := sym.Eval(expr, env)

		s := sat.New()
		e := New(s)
		if err := e.Assert(sym.NewBin(sym.OpEq, expr, sym.NewConst(target, width))); err != nil {
			return false
		}
		if st := s.Solve(200000); st != sat.Sat {
			return false
		}
		m := e.Model()
		// Complete missing vars with zero, as Eval does.
		return sym.Eval(expr, m) == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestShiftSemanticsMatchVM(t *testing.T) {
	// 64-bit variable shifts must agree with Eval (mask 63).
	x := sym.NewVar("x", 64)
	k := sym.NewVar("k", 64)
	for _, op := range []sym.BinOp{sym.OpShl, sym.OpLShr, sym.OpAShr} {
		expr := sym.NewBin(op, x, k)
		env := map[string]uint64{"x": 0xdeadbeefcafebabe, "k": 68} // 68&63 = 4
		want := sym.Eval(expr, env)
		s := sat.New()
		e := New(s)
		for n, v := range env {
			if err := e.Assert(sym.NewBin(sym.OpEq, sym.NewVar(n, 64), sym.NewConst(v, 64))); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Assert(sym.NewBin(sym.OpEq, expr, sym.NewConst(want, 64))); err != nil {
			t.Fatal(err)
		}
		if st := s.Solve(0); st != sat.Sat {
			t.Errorf("%v: shift semantics mismatch", op)
		}
	}
}

func TestConcatExtract(t *testing.T) {
	a := sym.NewVar("a", 8)
	b := sym.NewVar("b", 8)
	cat := sym.NewConcat(a, b) // a is high byte
	s := sat.New()
	e := New(s)
	if err := e.Assert(sym.NewBin(sym.OpEq, cat, sym.NewConst(0x1234, 16))); err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(0); st != sat.Sat {
		t.Fatal("unsat")
	}
	m := e.Model()
	if m["a"] != 0x12 || m["b"] != 0x34 {
		t.Errorf("model a=%#x b=%#x", m["a"], m["b"])
	}
}

// TestSharedSubtermEncodedOnce is the structural-miss regression test for
// the hash-consing arena: the same subexpression built twice through
// different construction paths must hit the encoder's per-node cache, so
// asserting a constraint over it twice must not double the gate count.
func TestSharedSubtermEncodedOnce(t *testing.T) {
	build := func(detour bool) sym.Expr {
		x := sym.NewVar("x", 32)
		// (x*3)+7 — each call runs a fresh constructor chain (distinct
		// pointers before hash-consing), and the detour variant takes a
		// different API route through identity-simplifying wrappers.
		mul := sym.NewBin(sym.OpMul, x, sym.NewConst(3, 32))
		if detour {
			mul = sym.NewZExt(sym.NewExtract(mul, 31, 0), 32)
			mul = sym.NewNot(sym.NewNot(mul))
		}
		return sym.NewBin(sym.OpAdd, mul, sym.NewConst(7, 32))
	}
	a, b := build(false), build(true)
	if a != b {
		t.Fatalf("interning failed: distinct pointers for structurally equal terms")
	}

	s := sat.New()
	e := New(s)
	if err := e.Assert(sym.NewBin(sym.OpNe, a, sym.NewConst(0, 32))); err != nil {
		t.Fatal(err)
	}
	g1 := e.Gates()
	if g1 == 0 {
		t.Fatal("expected gates from first assert")
	}
	if err := e.Assert(sym.NewBin(sym.OpNe, b, sym.NewConst(1, 32))); err != nil {
		t.Fatal(err)
	}
	g2 := e.Gates()
	// The second assert reuses the cached CNF for (x*3)+7; only the fresh
	// top-level comparison may allocate gates. Before interning, the two
	// construction paths produced distinct pointers and the whole circuit
	// was rebuilt, roughly doubling the count.
	if grew := g2 - g1; grew*4 > g1 {
		t.Errorf("second assert allocated %d gates on top of %d; shared subterm was re-encoded", grew, g1)
	}

}

// TestResetMatchesNew encodes a system on an encoder that already lowered
// a different one, guarded constraints included, and then Reset: the
// circuit, the search and the model must be those of a fresh encoder.
func TestResetMatchesNew(t *testing.T) {
	x := sym.NewVar("x", 64)
	y := sym.NewVar("y", 64)
	z := sym.NewVar("z", 16)
	first := []sym.Expr{
		sym.NewBin(sym.OpEq, sym.NewBin(sym.OpURem, x, y), sym.NewConst(3, 64)),
		sym.NewBin(sym.OpUlt, sym.NewConst(9, 64), y),
	}
	second := []sym.Expr{
		sym.NewBin(sym.OpEq, sym.NewBin(sym.OpMul, x, sym.NewConst(10, 64)), sym.NewConst(420, 64)),
		sym.NewBin(sym.OpSlt, sym.NewZExt(z, 64), sym.NewBin(sym.OpShl, y, sym.NewConst(2, 64))),
		sym.NewBin(sym.OpNe, sym.NewConcat(z, sym.NewExtract(y, 15, 0)), sym.NewConst(0, 32)),
	}
	run := func(e *Encoder, s *sat.Solver) string {
		for _, c := range second {
			if err := e.Assert(c); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Solve(0)
		return fmt.Sprintf("vars=%d clauses=%d gates=%d guards=%d status=%v stats=%+v model=%v",
			s.NumVars(), s.NumClauses(), e.Gates(), e.Guards(), st, s.Stats(), e.Model())
	}

	fresh := sat.New()
	want := run(New(fresh), fresh)

	s := sat.New()
	e := New(s)
	for _, c := range first {
		if _, err := e.AssertGuarded(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Assert(first[1]); err != nil {
		t.Fatal(err)
	}
	s.Solve(0)
	e.Reset()
	if got := run(e, s); got != want {
		t.Errorf("after Reset:\n got  %s\n want %s", got, want)
	}
}
