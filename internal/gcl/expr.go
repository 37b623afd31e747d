package gcl

import (
	"fmt"
	"sync/atomic"
)

// Ctx is the evaluation context of an expression: a program, a state, and
// the id of the process executing the action.
type Ctx struct {
	P   *Prog
	S   State
	Pid int
}

// shape classifies what an expression evaluates to when used as an array
// index, so footprints can be kept precise for the common index forms:
// a compile-time constant, the executing process id, or anything else
// (state-dependent, hence "could be any cell").
type shape uint8

const (
	shapeOpaque shape = iota
	shapeConst
	shapeSelf
)

// Expr evaluates to an int32 in a context. Booleans are represented as 0
// (false) and 1 (true), C-style. Alongside the compiled closure, every
// expression carries its static footprint — the shared cells it may read —
// so that programs can derive per-action footprints and an independence
// relation (footprint.go) without an interpretable syntax tree. The zero
// value is "no expression" (an absent guard or index).
type Expr struct {
	f     func(c *Ctx) int32
	reads cellMap
	shp   shape
	k     int32 // constant value when shp == shapeConst
}

// Eval evaluates the expression.
func (e Expr) Eval(c *Ctx) int32 { return e.f(c) }

// defined reports whether the expression was constructed (vs the zero
// value used for "no guard" / "no index").
func (e Expr) defined() bool { return e.f != nil }

// expr wraps a closure with the merged footprints of its operands.
func expr(f func(c *Ctx) int32, ops ...Expr) Expr {
	return Expr{f: f, reads: mergeReads(ops)}
}

// C returns a constant expression.
func C(v int) Expr {
	x := int32(v)
	return Expr{f: func(*Ctx) int32 { return x }, shp: shapeConst, k: x}
}

// Self returns the executing process id.
func Self() Expr {
	return Expr{f: func(c *Ctx) int32 { return int32(c.Pid) }, shp: shapeSelf}
}

// exprLayout is a name-resolving closure's cached variable layout: the
// program it was resolved against plus the resolved word offset and size.
// Expressions are built once per spec but evaluated millions of times in
// the successor hot loop, and the map[string]varInfo lookup inside
// Prog.Local/Shared dominated expression cost in profiles. Each closure
// carries its own cache behind an atomic pointer — a closure is shared by
// the model checker's expansion workers, so a plain captured variable would
// race.
// In practice an expression only ever meets one built program, so the
// cache hits permanently after the first evaluation; a mismatched program
// (tests juggling specs) just re-resolves through the panicking accessor.
type exprLayout struct {
	p    *Prog
	info varInfo
}

// localLayout returns the cached layout of a local variable, resolving and
// caching it on first use (or on a program change).
func localLayout(cache *atomic.Pointer[exprLayout], c *Ctx, name string) varInfo {
	if e := cache.Load(); e != nil && e.p == c.P {
		return e.info
	}
	e := &exprLayout{p: c.P, info: c.P.localVarInfo(name)}
	cache.Store(e)
	return e.info
}

// sharedLayout is localLayout for shared variables.
func sharedLayout(cache *atomic.Pointer[exprLayout], c *Ctx, name string) varInfo {
	if e := cache.Load(); e != nil && e.p == c.P {
		return e.info
	}
	e := &exprLayout{p: c.P, info: c.P.sharedVarInfo(name)}
	cache.Store(e)
	return e.info
}

// L reads the executing process's local variable. Locals live in the
// process's private block, so they never enter shared footprints.
func L(name string) Expr {
	var cache atomic.Pointer[exprLayout]
	return Expr{f: func(c *Ctx) int32 {
		info := localLayout(&cache, c, name)
		return c.S[c.P.sharedLen+c.Pid*c.P.localLen+info.off]
	}}
}

// Sh reads a shared scalar.
func Sh(name string) Expr {
	var cache atomic.Pointer[exprLayout]
	return Expr{
		f: func(c *Ctx) int32 {
			return c.S[sharedLayout(&cache, c, name).off]
		},
		reads: cellMap{name: {Idx: []int{0}}},
	}
}

// ShI reads a shared array cell at a computed index.
func ShI(name string, idx Expr) Expr {
	var cache atomic.Pointer[exprLayout]
	e := Expr{f: func(c *Ctx) int32 {
		info := sharedLayout(&cache, c, name)
		i := int(idx.f(c))
		if i < 0 || i >= info.size {
			panic(fmt.Sprintf("gcl: %s: index %d out of range for %q", c.P.Name, i, name))
		}
		return c.S[info.off+i]
	}}
	e.reads = mergeReads([]Expr{idx})
	e.reads = e.reads.add(name, idx.indexCells())
	return e
}

// ShSelf reads the executing process's own cell of a shared array; it is
// ShI(name, Self()) without the closure hop.
func ShSelf(name string) Expr {
	var cache atomic.Pointer[exprLayout]
	return Expr{
		f: func(c *Ctx) int32 {
			info := sharedLayout(&cache, c, name)
			if c.Pid >= info.size {
				panic(fmt.Sprintf("gcl: %s: index %d out of range for %q", c.P.Name, c.Pid, name))
			}
			return c.S[info.off+c.Pid]
		},
		reads: cellMap{name: {Self: true}},
	}
}

// MaxSh returns the maximum over all cells of a shared array, the paper's
// "maximum (number[1], ..., number[N])" read as one atomic action (the
// coarse-grained doorway; internal/specs also provides a fine-grained
// variant that reads one cell per step).
func MaxSh(name string) Expr {
	var cache atomic.Pointer[exprLayout]
	return Expr{
		f: func(c *Ctx) int32 {
			info := sharedLayout(&cache, c, name)
			max := int32(0)
			for _, v := range c.S[info.off : info.off+info.size] {
				if v > max {
					max = v
				}
			}
			return max
		},
		reads: cellMap{name: {All: true}},
	}
}

// Max2 returns the larger of a and b.
func Max2(a, b Expr) Expr {
	return expr(func(c *Ctx) int32 {
		x, y := a.f(c), b.f(c)
		if x > y {
			return x
		}
		return y
	}, a, b)
}

// MaxN returns the maximum of val(q) over all q in 0..n-1 with cond(q) true,
// or 0 if no condition holds. It expresses the Black-White Bakery's
// colour-restricted maximum "max{number[j] : colour of j equals mine}".
func MaxN(n int, f func(q int) (cond, val Expr)) Expr {
	conds := make([]Expr, n)
	vals := make([]Expr, n)
	for q := 0; q < n; q++ {
		conds[q], vals[q] = f(q)
	}
	return expr(func(c *Ctx) int32 {
		max := int32(0)
		for q := 0; q < n; q++ {
			if conds[q].f(c) != 0 {
				if v := vals[q].f(c); v > max {
					max = v
				}
			}
		}
		return max
	}, append(append([]Expr{}, conds...), vals...)...)
}

// Add returns a+b.
func Add(a, b Expr) Expr {
	return expr(func(c *Ctx) int32 { return a.f(c) + b.f(c) }, a, b)
}

// Sub returns a-b.
func Sub(a, b Expr) Expr {
	return expr(func(c *Ctx) int32 { return a.f(c) - b.f(c) }, a, b)
}

// Mod returns a mod b (b must evaluate nonzero).
func Mod(a, b Expr) Expr {
	return expr(func(c *Ctx) int32 {
		d := b.f(c)
		if d == 0 {
			panic("gcl: modulo by zero")
		}
		return a.f(c) % d
	}, a, b)
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// Eq returns a == b.
func Eq(a, b Expr) Expr {
	return expr(func(c *Ctx) int32 { return b2i(a.f(c) == b.f(c)) }, a, b)
}

// Ne returns a != b.
func Ne(a, b Expr) Expr {
	return expr(func(c *Ctx) int32 { return b2i(a.f(c) != b.f(c)) }, a, b)
}

// Lt returns a < b.
func Lt(a, b Expr) Expr {
	return expr(func(c *Ctx) int32 { return b2i(a.f(c) < b.f(c)) }, a, b)
}

// Le returns a <= b.
func Le(a, b Expr) Expr {
	return expr(func(c *Ctx) int32 { return b2i(a.f(c) <= b.f(c)) }, a, b)
}

// Gt returns a > b.
func Gt(a, b Expr) Expr {
	return expr(func(c *Ctx) int32 { return b2i(a.f(c) > b.f(c)) }, a, b)
}

// Ge returns a >= b.
func Ge(a, b Expr) Expr {
	return expr(func(c *Ctx) int32 { return b2i(a.f(c) >= b.f(c)) }, a, b)
}

// Not returns the boolean negation of a.
func Not(a Expr) Expr {
	return expr(func(c *Ctx) int32 { return b2i(a.f(c) == 0) }, a)
}

// And returns the conjunction of its operands, short-circuiting.
func And(xs ...Expr) Expr {
	return expr(func(c *Ctx) int32 {
		for _, x := range xs {
			if x.f(c) == 0 {
				return 0
			}
		}
		return 1
	}, xs...)
}

// Or returns the disjunction of its operands, short-circuiting.
func Or(xs ...Expr) Expr {
	return expr(func(c *Ctx) int32 {
		for _, x := range xs {
			if x.f(c) != 0 {
				return 1
			}
		}
		return 0
	}, xs...)
}

// AndN builds a universal quantification over 0..n-1: the conjunction of
// f(0), ..., f(n-1).
func AndN(n int, f func(q int) Expr) Expr {
	xs := make([]Expr, n)
	for q := 0; q < n; q++ {
		xs[q] = f(q)
	}
	return And(xs...)
}

// OrN builds an existential quantification over 0..n-1.
func OrN(n int, f func(q int) Expr) Expr {
	xs := make([]Expr, n)
	for q := 0; q < n; q++ {
		xs[q] = f(q)
	}
	return Or(xs...)
}

// LexLt returns the paper's ordered-pair comparison: (a1, b1) < (a2, b2)
// iff a1 < a2, or a1 = a2 and b1 < b2 (Algorithm 1's "<" on tickets).
func LexLt(a1, b1, a2, b2 Expr) Expr {
	return expr(func(c *Ctx) int32 {
		x1, x2 := a1.f(c), a2.f(c)
		if x1 != x2 {
			return b2i(x1 < x2)
		}
		return b2i(b1.f(c) < b2.f(c))
	}, a1, b1, a2, b2)
}

// Assign is one variable update within an action's effect. All right-hand
// sides of an effect are evaluated against the pre-state, then applied
// simultaneously (TLA+ priming semantics).
type Assign struct {
	Name  string
	Idx   Expr // zero Expr for shared scalars; unused for locals
	Val   Expr
	Local bool
}

// Set assigns a shared scalar.
func Set(name string, val Expr) Assign { return Assign{Name: name, Val: val} }

// SetI assigns a shared array cell at a computed index.
func SetI(name string, idx, val Expr) Assign { return Assign{Name: name, Idx: idx, Val: val} }

// SetSelf assigns the executing process's own cell of a shared array.
func SetSelf(name string, val Expr) Assign { return Assign{Name: name, Idx: Self(), Val: val} }

// SetL assigns a local variable of the executing process.
func SetL(name string, val Expr) Assign { return Assign{Name: name, Val: val, Local: true} }

// Branch is one guarded alternative of a labelled action: when Guard holds
// (the zero Expr means always), the Effect assignments are applied and
// control moves to Next. A label with several branches whose guards overlap
// is nondeterministic; a label none of whose guards hold is blocked (an
// await).
type Branch struct {
	Guard Expr
	Eff   []Assign
	Next  string
	// Tag annotates the branch for statistics ("reset", "cs-enter", ...);
	// it has no semantic effect.
	Tag string
}

// Br returns a guarded branch.
func Br(guard Expr, next string, eff ...Assign) Branch {
	return Branch{Guard: guard, Eff: eff, Next: next}
}

// Goto returns an unguarded branch.
func Goto(next string, eff ...Assign) Branch {
	return Branch{Eff: eff, Next: next}
}

// WithTag returns a copy of the branch carrying a statistics tag.
func (b Branch) WithTag(tag string) Branch {
	b.Tag = tag
	return b
}

// String renders the branch target and shape for listings and debugging.
func (b Branch) String() string {
	return fmt.Sprintf("-> %s (%d assigns, tag=%q)", b.Next, len(b.Eff), b.Tag)
}
