package solver

import (
	"math"
	"testing"

	"repro/internal/sym"
)

// BenchmarkAtoiChainSolve measures the canonical digit-chain query: the
// constraint shape every atoi-guarded bomb produces.
func BenchmarkAtoiChainSolve(b *testing.B) {
	b0 := sym.NewZExt(sym.NewVar("b0", 8), 64)
	b1 := sym.NewZExt(sym.NewVar("b1", 8), 64)
	d0 := sym.NewBin(sym.OpSub, b0, sym.NewConst('0', 64))
	d1 := sym.NewBin(sym.OpSub, b1, sym.NewConst('0', 64))
	v := sym.NewBin(sym.OpAdd, sym.NewBin(sym.OpMul, d0, sym.NewConst(10, 64)), d1)
	cs := []sym.Expr{
		sym.NewBin(sym.OpUle, sym.NewConst('0', 64), b0),
		sym.NewBin(sym.OpUle, b0, sym.NewConst('9', 64)),
		sym.NewBin(sym.OpUle, sym.NewConst('0', 64), b1),
		sym.NewBin(sym.OpUle, b1, sym.NewConst('9', 64)),
		sym.NewBin(sym.OpEq, v, sym.NewConst(42, 64)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Solve(cs, Options{})
		if err != nil || res.Status != StatusSat {
			b.Fatalf("res %v err %v", res.Status, err)
		}
	}
}

// BenchmarkFPLocalSearch measures the stochastic solver on the paper's
// float-bomb condition.
func BenchmarkFPLocalSearch(b *testing.B) {
	x := sym.NewVar("x", 64)
	c1024 := sym.NewConst(math.Float64bits(1024), 64)
	zero := sym.NewConst(math.Float64bits(0), 64)
	cs := []sym.Expr{
		sym.NewBin(sym.OpFEq, sym.NewBin(sym.OpFAdd, c1024, x), c1024),
		sym.NewBin(sym.OpFLt, zero, x),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Solve(cs, Options{FP: FPSearch, RandSeed: int64(i), FPIterations: 500_000})
		if err != nil || res.Status != StatusSat {
			b.Fatalf("res %v err %v", res.Status, err)
		}
	}
}
