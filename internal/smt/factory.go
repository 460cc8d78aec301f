package smt

import "encoding/binary"

// Factory is a hash-consing term constructor: every term built through a
// Factory is interned, so structurally equal terms constructed from
// already-interned operands are pointer-equal. Pointer identity then makes
// the simplifier's per-node memo tables (one-pass and fixpoint results)
// sound and cheap: a path-condition subterm shared by several of a root's
// constraints is rewritten once. Free-variable sets, node counts, NNF, DNF
// and candidate pools are not memoized but recomputed on every call: a
// root makes about one solver check, so it seldom asks for the same one
// twice (EXPERIMENTS.md has the counts).
//
// A nil *Factory is valid and means "no interning": every constructor
// method on a nil receiver falls back to direct allocation with semantics
// identical to the package-level constructors. This is the ablation path
// behind Options.DisableIntern.
//
// Lifetime and determinism: a Factory is NOT safe for concurrent use. The
// scanner creates one Factory per root attempt and uses it from a single
// goroutine; because each root's constraint construction order is
// deterministic, the Factory's counters are byte-identical across worker
// counts once merged in canonical root order.
//
// Memoization soundness: terms are immutable after construction and both
// cached computations (simplify1 and fixpoint simplification) are pure
// functions of term structure, so pointer-keyed memo hits can never change
// results — interning only makes hits likely.
type Factory struct {
	table  map[internKey]*Term
	ids    map[*Term]uint64
	nextID uint64
	stats  FactoryStats

	// internMemo caches Intern results for foreign (non-canonical) roots
	// and maps canonical terms to themselves.
	internMemo map[*Term]*Term

	simp1Memo map[*Term]*Term
	fixMemo   map[*Term]*Term
	fixCost   map[*Term]int
}

// FactoryStats counts the structural-sharing work a Factory performed.
// All fields are deterministic for a fixed construction order.
type FactoryStats struct {
	// InternHits counts constructor calls answered from the intern table.
	InternHits int64
	// InternMisses counts constructor calls that allocated a new node.
	InternMisses int64
	// SimplifyMemoHits counts simplification queries (one-pass or
	// fixpoint) answered from the per-node memo tables.
	SimplifyMemoHits int64
	// IncrementalReuse counts solver-session assertions whose simplified
	// form was already available from earlier incremental work (see
	// Session.Assert).
	IncrementalReuse int64
}

// internKey identifies a term up to structural equality, given that all
// argument pointers are canonical (interned). Arguments beyond the third
// are folded into rest as little-endian ids so the common small arities
// stay allocation-free.
type internKey struct {
	op         Op
	sort       Sort
	b          bool
	i          int64
	s          string
	nargs      int
	a0, a1, a2 uint64
	rest       string
}

// NewFactory returns an empty hash-consing factory.
func NewFactory() *Factory {
	return &Factory{
		table:      make(map[internKey]*Term),
		ids:        make(map[*Term]uint64),
		internMemo: make(map[*Term]*Term),
		simp1Memo:  make(map[*Term]*Term),
		fixMemo:    make(map[*Term]*Term),
		fixCost:    make(map[*Term]int),
	}
}

// Stats returns a snapshot of the factory's counters. Safe on nil (all
// zeros).
func (f *Factory) Stats() FactoryStats {
	if f == nil {
		return FactoryStats{}
	}
	return f.stats
}

// id returns a stable small identifier for a term pointer, assigning one
// on first use. Identifiers order by first appearance, so key encoding is
// deterministic for a fixed construction order.
func (f *Factory) id(t *Term) uint64 {
	if t == nil {
		return 0
	}
	if v, ok := f.ids[t]; ok {
		return v
	}
	f.nextID++
	f.ids[t] = f.nextID
	return f.nextID
}

// mk is the interning constructor every factory builder funnels through.
// On a nil receiver it allocates directly, matching the package-level
// constructors byte for byte. The args slice is retained by the returned
// term; callers must not mutate it afterwards (the same contract the
// package constructors already have).
func (f *Factory) mk(op Op, sort Sort, b bool, i int64, s string, args []*Term) *Term {
	if f == nil {
		return &Term{Op: op, sort: sort, B: b, I: i, S: s, Args: args}
	}
	k := internKey{op: op, sort: sort, b: b, i: i, s: s, nargs: len(args)}
	switch len(args) {
	case 0:
	case 1:
		k.a0 = f.id(args[0])
	case 2:
		k.a0, k.a1 = f.id(args[0]), f.id(args[1])
	case 3:
		k.a0, k.a1, k.a2 = f.id(args[0]), f.id(args[1]), f.id(args[2])
	default:
		k.a0, k.a1, k.a2 = f.id(args[0]), f.id(args[1]), f.id(args[2])
		buf := make([]byte, 8*(len(args)-3))
		for j, a := range args[3:] {
			binary.LittleEndian.PutUint64(buf[8*j:], f.id(a))
		}
		k.rest = string(buf)
	}
	if t, ok := f.table[k]; ok {
		f.stats.InternHits++
		return t
	}
	f.stats.InternMisses++
	t := &Term{Op: op, sort: sort, B: b, I: i, S: s, Args: args}
	f.table[k] = t
	f.internMemo[t] = t
	return t
}

// Intern canonicalizes an externally built term tree into the factory,
// returning a structurally equal term whose every node is interned.
// Already-canonical terms are returned unchanged (and, for roots the
// factory has seen, in O(1)). Safe on nil (identity).
func (f *Factory) Intern(t *Term) *Term {
	if f == nil || t == nil {
		return t
	}
	if r, ok := f.internMemo[t]; ok {
		return r
	}
	var r *Term
	if len(t.Args) == 0 {
		r = f.mk(t.Op, t.sort, t.B, t.I, t.S, nil)
	} else {
		args := make([]*Term, len(t.Args))
		same := true
		for i, a := range t.Args {
			args[i] = f.Intern(a)
			if args[i] != a {
				same = false
			}
		}
		if same {
			r = f.mk(t.Op, t.sort, t.B, t.I, t.S, t.Args)
		} else {
			r = f.mk(t.Op, t.sort, t.B, t.I, t.S, args)
		}
	}
	f.internMemo[t] = r
	return r
}

// --- constructor methods (nil-safe, mirroring the package constructors) ---

// True returns the true constant.
func (f *Factory) True() *Term { return trueTerm }

// False returns the false constant.
func (f *Factory) False() *Term { return falseTerm }

// Bool returns a boolean constant.
func (f *Factory) Bool(b bool) *Term { return Bool(b) }

// Int returns an interned integer constant.
func (f *Factory) Int(v int64) *Term { return f.mk(OpIntConst, SortInt, false, v, "", nil) }

// Str returns an interned string constant.
func (f *Factory) Str(s string) *Term { return f.mk(OpStrConst, SortString, false, 0, s, nil) }

// Var returns an interned variable of the given sort.
func (f *Factory) Var(name string, sort Sort) *Term {
	return f.mk(OpVar, sort, false, 0, name, nil)
}

// Not negates a boolean term.
func (f *Factory) Not(t *Term) *Term {
	return f.mk(OpNot, SortBool, false, 0, "", []*Term{t})
}

// And conjoins boolean terms. And() is true.
func (f *Factory) And(ts ...*Term) *Term {
	switch len(ts) {
	case 0:
		return trueTerm
	case 1:
		return ts[0]
	}
	return f.mk(OpAnd, SortBool, false, 0, "", ts)
}

// Or disjoins boolean terms. Or() is false.
func (f *Factory) Or(ts ...*Term) *Term {
	switch len(ts) {
	case 0:
		return falseTerm
	case 1:
		return ts[0]
	}
	return f.mk(OpOr, SortBool, false, 0, "", ts)
}

// Eq builds equality between two terms of the same sort.
func (f *Factory) Eq(a, b *Term) *Term {
	return f.mk(OpEq, SortBool, false, 0, "", []*Term{a, b})
}

// Ite builds if-then-else.
func (f *Factory) Ite(c, a, b *Term) *Term {
	return f.mk(OpIte, a.sort, false, 0, "", []*Term{c, a, b})
}

// Add sums integer terms.
func (f *Factory) Add(ts ...*Term) *Term {
	if len(ts) == 1 {
		return ts[0]
	}
	return f.mk(OpAdd, SortInt, false, 0, "", ts)
}

// Sub subtracts b from a.
func (f *Factory) Sub(a, b *Term) *Term {
	return f.mk(OpSub, SortInt, false, 0, "", []*Term{a, b})
}

// Mul multiplies integer terms.
func (f *Factory) Mul(ts ...*Term) *Term {
	if len(ts) == 1 {
		return ts[0]
	}
	return f.mk(OpMul, SortInt, false, 0, "", ts)
}

// Neg negates an integer term.
func (f *Factory) Neg(a *Term) *Term {
	return f.mk(OpNeg, SortInt, false, 0, "", []*Term{a})
}

// Lt is a < b.
func (f *Factory) Lt(a, b *Term) *Term {
	return f.mk(OpLt, SortBool, false, 0, "", []*Term{a, b})
}

// Le is a <= b.
func (f *Factory) Le(a, b *Term) *Term {
	return f.mk(OpLe, SortBool, false, 0, "", []*Term{a, b})
}

// Gt is a > b.
func (f *Factory) Gt(a, b *Term) *Term {
	return f.mk(OpGt, SortBool, false, 0, "", []*Term{a, b})
}

// Ge is a >= b.
func (f *Factory) Ge(a, b *Term) *Term {
	return f.mk(OpGe, SortBool, false, 0, "", []*Term{a, b})
}

// Concat concatenates string terms. Concat() is "".
func (f *Factory) Concat(ts ...*Term) *Term {
	switch len(ts) {
	case 0:
		return f.Str("")
	case 1:
		return ts[0]
	}
	return f.mk(OpConcat, SortString, false, 0, "", ts)
}

// Len is str.len.
func (f *Factory) Len(s *Term) *Term {
	return f.mk(OpLen, SortInt, false, 0, "", []*Term{s})
}

// SuffixOf is str.suffixof: does s end with suffix?
func (f *Factory) SuffixOf(suffix, s *Term) *Term {
	return f.mk(OpSuffixOf, SortBool, false, 0, "", []*Term{suffix, s})
}

// PrefixOf is str.prefixof: does s start with prefix?
func (f *Factory) PrefixOf(prefix, s *Term) *Term {
	return f.mk(OpPrefixOf, SortBool, false, 0, "", []*Term{prefix, s})
}

// Contains is str.contains: does s contain sub?
func (f *Factory) Contains(s, sub *Term) *Term {
	return f.mk(OpContains, SortBool, false, 0, "", []*Term{s, sub})
}

// IndexOf is str.indexof s sub from.
func (f *Factory) IndexOf(s, sub, from *Term) *Term {
	return f.mk(OpIndexOf, SortInt, false, 0, "", []*Term{s, sub, from})
}

// Replace is str.replace s old new (first occurrence only, per SMT-LIB).
func (f *Factory) Replace(s, old, new *Term) *Term {
	return f.mk(OpReplace, SortString, false, 0, "", []*Term{s, old, new})
}

// Substr is str.substr s off len.
func (f *Factory) Substr(s, off, length *Term) *Term {
	return f.mk(OpSubstr, SortString, false, 0, "", []*Term{s, off, length})
}

// ToInt is str.to.int.
func (f *Factory) ToInt(s *Term) *Term {
	return f.mk(OpToInt, SortInt, false, 0, "", []*Term{s})
}

// FromInt is str.from.int.
func (f *Factory) FromInt(i *Term) *Term {
	return f.mk(OpFromInt, SortString, false, 0, "", []*Term{i})
}

// At is str.at.
func (f *Factory) At(s, i *Term) *Term {
	return f.mk(OpAt, SortString, false, 0, "", []*Term{s, i})
}
