package sym

import (
	"math"
	"testing"
)

// evalTree is the recursive tree-walk evaluator the compiled Program
// replaced, kept as the differential oracle: it walks the expression as a
// tree (memoized past evalMemoMin tree nodes), evaluates only the taken
// ITE branch, and inlines the unary semantics instead of sharing evalUn.
func evalTree(e Expr, env map[string]uint64) uint64 {
	if m := meta(e); m != nil && m.tn > evalMemoMin {
		return evalTreeExpr(e, env, make(map[Expr]uint64))
	}
	return evalTreeExpr(e, env, nil)
}

const evalMemoMin = 4096

func evalTreeExpr(e Expr, env map[string]uint64, memo map[Expr]uint64) uint64 {
	if memo != nil {
		if v, ok := memo[e]; ok {
			return v
		}
	}
	v := evalTreeNode(e, env, memo)
	if memo != nil {
		switch e.(type) {
		case *Bin, *Un, *ITE:
			memo[e] = v
		}
	}
	return v
}

func evalTreeNode(e Expr, env map[string]uint64, memo map[Expr]uint64) uint64 {
	switch t := e.(type) {
	case *Const:
		return t.V
	case *Var:
		return env[t.Name] & mask(t.W)
	case *Bin:
		a := evalTreeExpr(t.A, env, memo)
		b := evalTreeExpr(t.B, env, memo)
		if t.Op == OpConcat {
			return ((a << uint(t.B.Width())) | b) & mask(t.w)
		}
		return evalBin(t.Op, a, b, t.A.Width(), t.B.Width()) & mask(t.w)
	case *Un:
		a := evalTreeExpr(t.A, env, memo)
		switch t.Op {
		case OpNot:
			return ^a & mask(t.w)
		case OpNeg:
			return (-a) & mask(t.w)
		case OpZExt:
			return a
		case OpSExt:
			return signExtend(a, t.A.Width()) & mask(t.w)
		case OpExtract:
			return (a >> uint(t.Arg2)) & mask(t.w)
		case OpI2F:
			return math.Float64bits(float64(int64(signExtend(a, t.A.Width()))))
		case OpF2I:
			f := math.Float64frombits(a)
			switch {
			case math.IsNaN(f):
				return 0
			case f >= math.MaxInt64:
				return math.MaxInt64
			case f <= math.MinInt64:
				return 0x8000_0000_0000_0000
			default:
				return uint64(int64(f))
			}
		case OpBoolNot:
			return (a ^ 1) & 1
		}
	case *ITE:
		if evalTreeExpr(t.Cond, env, memo)&1 == 1 {
			return evalTreeExpr(t.Then, env, memo)
		}
		return evalTreeExpr(t.Else, env, memo)
	}
	return 0
}

// checkCompiled compares a compiled system against the oracle under env:
// every root after a full Run, every root after changing each variable in
// turn and re-running only its cone, the operand values of binary roots,
// and the slot layout against Vars/VarWidths.
func checkCompiled(t *testing.T, sys []Expr, env map[string]uint64) {
	t.Helper()
	p := Compile(sys...)
	names := Vars(sys...)
	if len(names) != len(p.Vars()) {
		t.Fatalf("Vars: %v, compiled %v", names, p.Vars())
	}
	widths := VarWidths(sys...)
	for s, n := range p.Vars() {
		if names[s] != n || widths[n] != p.Width(s) {
			t.Fatalf("slot %d: %s/%d, want %s/%d", s, n, p.Width(s), names[s], widths[names[s]])
		}
	}
	vals := p.Bind(env)
	p.Run(vals)
	compare := func(what string, env map[string]uint64) {
		t.Helper()
		holds := len(sys) > 0
		for i, e := range sys {
			want := evalTree(e, env)
			if got := p.Value(i); got != want {
				t.Fatalf("%s: root %d = %#x, oracle %#x", what, i, got, want)
			}
			holds = holds && want == 1
			if b, ok := e.(*Bin); ok {
				a, bv, ok := p.Operands(i)
				if !ok || a != evalTree(b.A, env) || bv != evalTree(b.B, env) {
					t.Fatalf("%s: root %d operands (%#x, %#x, %v) differ from the oracle", what, i, a, bv, ok)
				}
			}
		}
		if len(sys) > 0 && p.Holds() != holds {
			t.Fatalf("%s: Holds = %v, oracle %v", what, p.Holds(), holds)
		}
	}
	compare("run", env)
	cur := make(map[string]uint64, len(env))
	for k, v := range env {
		cur[k] = v
	}
	for s, n := range p.Vars() {
		nv := cur[n]*0x9e3779b97f4a7c15 + 0xd1
		cur[n] = nv
		vals[s] = nv
		p.Rerun(vals, s)
		compare("rerun "+n, cur)
	}
}

func TestCompiledMatchesOracle(t *testing.T) {
	x := NewVar("x", 32)
	y := NewVar("y", 8)
	shared := NewBin(OpAdd, NewZExt(y, 32), x)
	sys := []Expr{
		NewBin(OpUlt, shared, NewConst(100, 32)),
		NewBin(OpEq, NewExtract(shared, 7, 0), y),
		NewITE(NewBin(OpEq, y, NewConst(3, 8)), NewBin(OpUlt, x, NewConst(9, 32)), True()),
		NewBoolNot(NewBin(OpEq, NewSExt(y, 64), NewConst(^uint64(0), 64))),
		NewBin(OpFLt, NewI2F(NewZExt(x, 64)), NewF2I(NewConst(math.Float64bits(1e30), 64))),
	}
	for _, env := range []map[string]uint64{nil, {"x": 5, "y": 3}, {"x": 1 << 40, "y": 0x1ff}} {
		checkCompiled(t, sys, env)
	}
	// Nil and foreign roots evaluate to zero, as under Eval.
	p := Compile(nil, x)
	p.Run(p.Bind(map[string]uint64{"x": 7}))
	if p.Value(0) != 0 || p.Value(1) != 7 || p.Holds() {
		t.Errorf("nil root: values %d, %d", p.Value(0), p.Value(1))
	}
}

// FuzzCompiledEval is the differential fuzzer for the compiled
// evaluator: on random shared DAGs from the FuzzInternEval generator,
// both raw and interned, a compiled Program (full runs and per-variable
// cone reruns) must agree with the tree-walk oracle on every root and
// every binary root's operands.
func FuzzCompiledEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{2, 5, 0, 0, 5, 1, 0, 0})
	f.Add([]byte{6, 0, 0, 60, 5, 0, 0, 0})
	f.Add([]byte{3, 2, 0, 9, 5, 1, 0, 0})
	f.Add([]byte{4, 0, 1, 2, 5, 3, 0, 0})
	f.Add([]byte{0, 2, 0, 7, 2, 13, 1, 1, 5, 1, 0, 0})
	f.Add([]byte("C000C000A012"))
	f.Add([]byte{1, 0, 3, 0, 1, 1, 1, 0, 2, 19, 1, 2, 4, 3, 1, 2, 5, 4, 0, 0, 5, 3, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		raw := buildSystem(data, 0)
		var total uint64
		for _, e := range raw {
			total = satAdd(total, TreeNodes(e))
		}
		if total > 1<<15 {
			return // the oracle walks trees
		}
		shared := make([]Expr, len(raw))
		for i, e := range raw {
			shared[i] = Intern(e)
		}
		envs := []map[string]uint64{
			nil,
			{"seed": 0xa5, "argv1!0": 42, "argv1!1": 7, "env!time": 1_700_000_000, "env!pid": 1234},
			{"seed": ^uint64(0), "argv1!0": 0x80, "argv1!1": 0xffff_ffff, "env!time": 1 << 63},
		}
		for _, env := range envs {
			checkCompiled(t, raw, env)
			checkCompiled(t, shared, env)
		}
	})
}
