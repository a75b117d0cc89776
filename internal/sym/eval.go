package sym

import (
	"math"
	"math/bits"
	"sort"
)

// Program is a constraint system compiled for repeated concrete
// evaluation: the distinct nodes of its expression DAG in topological
// order (children before parents), one value register per node, and the
// variables bound to dense slots. Running it evaluates every distinct
// node exactly once, however many constraints share it — a decoder
// shared by a hundred path constraints is decoded once, not a hundred
// times — and Rerun re-evaluates only the nodes that depend on one
// changed variable.
//
// A Program is not safe for concurrent use: it owns its registers.
type Program struct {
	code  []instr
	val   []uint64 // register per instruction, from the last Run
	roots []int32  // instruction of each root, in Compile order

	names  []string // slot -> variable name, sorted
	widths []int    // slot -> width, as VarWidths reports it

	cones [][]int32 // slot -> dependent instructions, ascending; built lazily
}

// Instruction kinds.
const (
	kConst uint8 = iota
	kVar
	kBin
	kUn
	kITE
)

// instr is one DAG node. Operands are instruction indexes; m is the
// result mask; k holds a constant's value, a variable's slot, or an
// extract's low bit.
type instr struct {
	kind, op uint8
	aw, bw   int32 // operand widths
	a, b, c  int32
	m        uint64
	k        uint64
}

// Compile flattens the expressions into a Program whose roots are the
// expressions in order. Nil or foreign expressions evaluate to zero, as
// they always have under Eval.
func Compile(roots ...Expr) *Program {
	c := compiler{
		p:     &Program{roots: make([]int32, len(roots))},
		index: make(map[Expr]int32),
		slot:  make(map[string]int32),
	}
	for i, e := range roots {
		c.p.roots[i] = c.node(e)
	}
	p := c.p
	// Number slots in name order so Vars matches the package-level
	// Vars; rewrite the provisional (first-seen) slots to match.
	order := make([]int32, len(c.names))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return c.names[order[i]] < c.names[order[j]] })
	final := make([]uint64, len(order))
	p.names = make([]string, len(order))
	p.widths = make([]int, len(order))
	for s, prov := range order {
		final[prov] = uint64(s)
		p.names[s] = c.names[prov]
		p.widths[s] = c.widths[prov]
	}
	for i := range p.code {
		if p.code[i].kind == kVar {
			p.code[i].k = final[p.code[i].k]
		}
	}
	p.val = make([]uint64, len(p.code))
	return p
}

type compiler struct {
	p      *Program
	index  map[Expr]int32
	slot   map[string]int32 // name -> provisional slot
	names  []string
	widths []int
}

// node emits e's instruction after its operands', returning its index.
// Operands are visited in the order VarWidths walks them, so a name
// bound at several widths reports the width VarWidths would.
func (c *compiler) node(e Expr) int32 {
	if i, ok := c.index[e]; ok {
		return i
	}
	var in instr
	switch t := e.(type) {
	case *Const:
		in = instr{kind: kConst, k: t.V}
	case *Var:
		s, ok := c.slot[t.Name]
		if !ok {
			s = int32(len(c.names))
			c.slot[t.Name] = s
			c.names = append(c.names, t.Name)
			c.widths = append(c.widths, t.W)
		}
		c.widths[s] = t.W
		in = instr{kind: kVar, k: uint64(s), m: mask(t.W)}
	case *Bin:
		a := c.node(t.A)
		b := c.node(t.B)
		in = instr{kind: kBin, op: uint8(t.Op), a: a, b: b,
			aw: int32(t.A.Width()), bw: int32(t.B.Width()), m: mask(t.w)}
	case *Un:
		a := c.node(t.A)
		in = instr{kind: kUn, op: uint8(t.Op), a: a,
			aw: int32(t.A.Width()), m: mask(t.w), k: uint64(t.Arg2)}
	case *ITE:
		cond := c.node(t.Cond)
		then := c.node(t.Then)
		els := c.node(t.Else)
		in = instr{kind: kITE, a: cond, b: then, c: els}
	default:
		in = instr{kind: kConst} // nil or foreign: zero
	}
	i := int32(len(c.p.code))
	c.p.code = append(c.p.code, in)
	if e != nil {
		c.index[e] = i
	}
	return i
}

// Vars returns the program's variable names in slot order, which is
// sorted order. The slice is shared; do not modify it.
func (p *Program) Vars() []string { return p.names }

// Width returns the width of the variable in slot s.
func (p *Program) Width(s int) int { return p.widths[s] }

// Bind returns a slot vector holding env's values (missing variables
// are zero).
func (p *Program) Bind(env map[string]uint64) []uint64 {
	vals := make([]uint64, len(p.names))
	for s, n := range p.names {
		vals[s] = env[n]
	}
	return vals
}

// Run evaluates every instruction under the slot values env (one per
// Vars entry; only the low width bits of each are read).
func (p *Program) Run(env []uint64) {
	for i := range p.code {
		p.exec(i, env)
	}
}

// Rerun re-evaluates only the instructions that depend on slot s, after
// env[s] changed since the last Run. Every other slot must be unchanged.
func (p *Program) Rerun(env []uint64, s int) {
	if p.cones == nil {
		p.buildCones()
	}
	for _, i := range p.cones[s] {
		p.exec(int(i), env)
	}
}

func (p *Program) exec(i int, env []uint64) {
	in := &p.code[i]
	var v uint64
	switch in.kind {
	case kConst:
		v = in.k
	case kVar:
		v = env[in.k] & in.m
	case kBin:
		v = evalBin(BinOp(in.op), p.val[in.a], p.val[in.b], int(in.aw), int(in.bw)) & in.m
	case kUn:
		v = evalUn(UnOp(in.op), p.val[in.a], int(in.aw), in.m, in.k)
	case kITE:
		if p.val[in.a]&1 == 1 {
			v = p.val[in.b]
		} else {
			v = p.val[in.c]
		}
	}
	p.val[i] = v
}

// buildCones records, for every slot, the instructions whose value
// depends on it, in evaluation order.
func (p *Program) buildCones() {
	words := (len(p.names) + 63) / 64
	deps := make([]uint64, len(p.code)*words)
	p.cones = make([][]int32, len(p.names))
	for i, in := range p.code {
		d := deps[i*words : (i+1)*words]
		switch in.kind {
		case kVar:
			d[in.k/64] |= 1 << (in.k % 64)
		case kBin:
			orInto(d, deps[int(in.a)*words:], deps[int(in.b)*words:])
		case kUn:
			orInto(d, deps[int(in.a)*words:])
		case kITE:
			orInto(d, deps[int(in.a)*words:], deps[int(in.b)*words:], deps[int(in.c)*words:])
		}
		for w, word := range d {
			for ; word != 0; word &= word - 1 {
				s := w*64 + bits.TrailingZeros64(word)
				p.cones[s] = append(p.cones[s], int32(i))
			}
		}
	}
}

// orInto ors each of srcs into dst, word by word.
func orInto(dst []uint64, srcs ...[]uint64) {
	for _, src := range srcs {
		for w := range dst {
			dst[w] |= src[w]
		}
	}
}

// Value returns root i's value from the last Run.
func (p *Program) Value(i int) uint64 { return p.val[p.roots[i]] }

// Operands returns the operand values of root i from the last Run when
// the root is a binary operation.
func (p *Program) Operands(i int) (a, b uint64, ok bool) {
	in := &p.code[p.roots[i]]
	if in.kind != kBin {
		return 0, 0, false
	}
	return p.val[in.a], p.val[in.b], true
}

// Holds reports whether every root evaluated to 1 in the last Run: the
// assignment satisfies the constraint system.
func (p *Program) Holds() bool {
	for _, r := range p.roots {
		if p.val[r] != 1 {
			return false
		}
	}
	return true
}

// Satisfied runs the program under env and reports whether every root
// evaluated to 1.
func (p *Program) Satisfied(env map[string]uint64) bool {
	p.Run(p.Bind(env))
	return p.Holds()
}

// Eval computes the concrete value of e under the environment (variable
// name -> value). Missing variables evaluate to zero. It compiles e and
// runs it once, so it is linear in e's distinct nodes however heavily
// they are shared; evaluate a system repeatedly through Compile.
func Eval(e Expr, env map[string]uint64) uint64 {
	p := Compile(e)
	p.Run(p.Bind(env))
	return p.Value(0)
}

func signExtend(v uint64, w int) uint64 {
	if w >= 64 {
		return v
	}
	if v&(uint64(1)<<(uint(w)-1)) != 0 {
		return v | ^mask(w)
	}
	return v
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// evalBin applies a binary operator to operand values of widths aw and
// bw. The caller masks the result to the node's width.
func evalBin(op BinOp, a, b uint64, aw, bw int) uint64 {
	w := aw
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpUDiv:
		if b == 0 {
			return mask(w)
		}
		return a / b
	case OpSDiv:
		if b == 0 {
			return mask(w)
		}
		sa, sb := int64(signExtend(a, w)), int64(signExtend(b, w))
		return uint64(sa / sb)
	case OpURem:
		if b == 0 {
			return a
		}
		return a % b
	case OpSRem:
		if b == 0 {
			return a
		}
		sa, sb := int64(signExtend(a, w)), int64(signExtend(b, w))
		return uint64(sa % sb)
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & uint64(w-1))
	case OpLShr:
		return a >> (b & uint64(w-1))
	case OpAShr:
		return uint64(int64(signExtend(a, w)) >> (b & uint64(w-1)))
	case OpEq:
		return boolBit(a == b)
	case OpNe:
		return boolBit(a != b)
	case OpUlt:
		return boolBit(a < b)
	case OpUle:
		return boolBit(a <= b)
	case OpSlt:
		return boolBit(int64(signExtend(a, w)) < int64(signExtend(b, w)))
	case OpSle:
		return boolBit(int64(signExtend(a, w)) <= int64(signExtend(b, w)))
	case OpConcat:
		return (a << uint(bw)) | b
	case OpFAdd:
		return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
	case OpFSub:
		return math.Float64bits(math.Float64frombits(a) - math.Float64frombits(b))
	case OpFMul:
		return math.Float64bits(math.Float64frombits(a) * math.Float64frombits(b))
	case OpFDiv:
		return math.Float64bits(math.Float64frombits(a) / math.Float64frombits(b))
	case OpFEq:
		return boolBit(math.Float64frombits(a) == math.Float64frombits(b))
	case OpFLt:
		return boolBit(math.Float64frombits(a) < math.Float64frombits(b))
	case OpFLe:
		return boolBit(math.Float64frombits(a) <= math.Float64frombits(b))
	}
	return 0
}

// evalUn applies a unary operator to an operand value of width aw; m is
// the node's result mask and lo an extract's low bit.
func evalUn(op UnOp, a uint64, aw int, m, lo uint64) uint64 {
	switch op {
	case OpNot:
		return ^a & m
	case OpNeg:
		return -a & m
	case OpZExt:
		return a
	case OpSExt:
		return signExtend(a, aw) & m
	case OpExtract:
		return (a >> lo) & m
	case OpI2F:
		return math.Float64bits(float64(int64(signExtend(a, aw))))
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
	return 0
}
