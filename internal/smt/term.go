// Package smt implements the SMT layer UChecker verifies constraints with.
//
// The paper uses Z3 with string extensions (Z3-str) as its solver. This
// package is a from-scratch, stdlib-only replacement that decides exactly
// the fragment UChecker's translator emits: boolean structure over integer
// arithmetic/comparisons and the string operations of Table II — str.++,
// str.len, str.suffixof, str.prefixof, str.contains, str.indexof,
// str.replace, str.substr, str.to.int, str.at.
//
// Decision procedure (see Solver): a rewriting simplifier performs constant
// folding and structural reasoning (concat flattening, suffix decomposition,
// length arithmetic); the remainder is converted to DNF and each cube is
// checked by a literal-seeded bounded model search whose witnesses are
// verified by evaluation, so Sat answers are always sound. Unsat answers
// are bounded-complete: complete for the finite candidate space documented
// in candidates.go, which covers the constraint shapes the detector
// generates. An SMT-LIB2 serializer (ToSMTLIB2) keeps compatibility with
// external solvers for cross-checking.
package smt

import (
	"fmt"
	"strconv"
	"strings"
)

// Sort is the type of a term.
type Sort int

// Sorts.
const (
	SortBool Sort = iota
	SortInt
	SortString
)

func (s Sort) String() string {
	switch s {
	case SortBool:
		return "Bool"
	case SortInt:
		return "Int"
	case SortString:
		return "String"
	default:
		return fmt.Sprintf("Sort(%d)", int(s))
	}
}

// Op is a term constructor opcode.
type Op int

// Opcodes.
const (
	OpInvalid Op = iota

	// Leaves.
	OpBoolConst // Bool
	OpIntConst  // Int
	OpStrConst  // Str
	OpVar       // Str = name, Sort field gives sort

	// Boolean connectives.
	OpNot
	OpAnd
	OpOr
	OpEq  // polymorphic equality, both args same sort
	OpIte // Ite(cond, then, else); then/else same sort

	// Integer arithmetic and comparisons.
	OpAdd
	OpSub
	OpMul
	OpNeg
	OpLt
	OpLe
	OpGt
	OpGe

	// String operations.
	OpConcat   // str.++ (n-ary)
	OpLen      // str.len -> Int
	OpSuffixOf // str.suffixof suffix s
	OpPrefixOf // str.prefixof prefix s
	OpContains // str.contains s sub
	OpIndexOf  // str.indexof s sub from -> Int
	OpReplace  // str.replace s old new -> String (first occurrence)
	OpSubstr   // str.substr s off len -> String
	OpToInt    // str.to.int -> Int (-1 when not a digit string)
	OpFromInt  // str.from.int Int -> String
	OpAt       // str.at s i -> String (1-char or empty)
)

var opNames = map[Op]string{
	OpBoolConst: "bool", OpIntConst: "int", OpStrConst: "str", OpVar: "var",
	OpNot: "not", OpAnd: "and", OpOr: "or", OpEq: "=", OpIte: "ite",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpNeg: "neg",
	OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpConcat: "str.++", OpLen: "str.len",
	OpSuffixOf: "str.suffixof", OpPrefixOf: "str.prefixof",
	OpContains: "str.contains", OpIndexOf: "str.indexof",
	OpReplace: "str.replace", OpSubstr: "str.substr",
	OpToInt: "str.to.int", OpFromInt: "str.from.int", OpAt: "str.at",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Term is an SMT term. Terms are immutable after construction; share them
// freely.
type Term struct {
	Op   Op
	sort Sort

	B    bool    // OpBoolConst
	I    int64   // OpIntConst
	S    string  // OpStrConst value or OpVar name
	Args []*Term // operands
}

// Sort returns the term's sort.
func (t *Term) Sort() Sort { return t.sort }

// IsConst reports whether t is a constant leaf.
func (t *Term) IsConst() bool {
	switch t.Op {
	case OpBoolConst, OpIntConst, OpStrConst:
		return true
	}
	return false
}

// --- constructors ---

var (
	trueTerm  = &Term{Op: OpBoolConst, sort: SortBool, B: true}
	falseTerm = &Term{Op: OpBoolConst, sort: SortBool, B: false}
)

// True returns the true constant.
func True() *Term { return trueTerm }

// False returns the false constant.
func False() *Term { return falseTerm }

// Bool returns a boolean constant.
func Bool(b bool) *Term {
	if b {
		return trueTerm
	}
	return falseTerm
}

// Int returns an integer constant.
func Int(v int64) *Term { return &Term{Op: OpIntConst, sort: SortInt, I: v} }

// Str returns a string constant.
func Str(s string) *Term { return &Term{Op: OpStrConst, sort: SortString, S: s} }

// Var returns a variable of the given sort.
func Var(name string, sort Sort) *Term { return &Term{Op: OpVar, sort: sort, S: name} }

// Not negates a boolean term.
func Not(t *Term) *Term { return &Term{Op: OpNot, sort: SortBool, Args: []*Term{t}} }

// And conjoins boolean terms. And() is true.
func And(ts ...*Term) *Term {
	switch len(ts) {
	case 0:
		return trueTerm
	case 1:
		return ts[0]
	}
	return &Term{Op: OpAnd, sort: SortBool, Args: ts}
}

// Or disjoins boolean terms. Or() is false.
func Or(ts ...*Term) *Term {
	switch len(ts) {
	case 0:
		return falseTerm
	case 1:
		return ts[0]
	}
	return &Term{Op: OpOr, sort: SortBool, Args: ts}
}

// Eq builds equality between two terms of the same sort.
func Eq(a, b *Term) *Term { return &Term{Op: OpEq, sort: SortBool, Args: []*Term{a, b}} }

// Ite builds if-then-else.
func Ite(c, a, b *Term) *Term {
	return &Term{Op: OpIte, sort: a.sort, Args: []*Term{c, a, b}}
}

// Add sums integer terms.
func Add(ts ...*Term) *Term {
	if len(ts) == 1 {
		return ts[0]
	}
	return &Term{Op: OpAdd, sort: SortInt, Args: ts}
}

// Sub subtracts b from a.
func Sub(a, b *Term) *Term { return &Term{Op: OpSub, sort: SortInt, Args: []*Term{a, b}} }

// Mul multiplies integer terms.
func Mul(ts ...*Term) *Term {
	if len(ts) == 1 {
		return ts[0]
	}
	return &Term{Op: OpMul, sort: SortInt, Args: ts}
}

// Neg negates an integer term.
func Neg(a *Term) *Term { return &Term{Op: OpNeg, sort: SortInt, Args: []*Term{a}} }

// Lt is a < b.
func Lt(a, b *Term) *Term { return &Term{Op: OpLt, sort: SortBool, Args: []*Term{a, b}} }

// Le is a <= b.
func Le(a, b *Term) *Term { return &Term{Op: OpLe, sort: SortBool, Args: []*Term{a, b}} }

// Gt is a > b.
func Gt(a, b *Term) *Term { return &Term{Op: OpGt, sort: SortBool, Args: []*Term{a, b}} }

// Ge is a >= b.
func Ge(a, b *Term) *Term { return &Term{Op: OpGe, sort: SortBool, Args: []*Term{a, b}} }

// Concat concatenates string terms. Concat() is "".
func Concat(ts ...*Term) *Term {
	switch len(ts) {
	case 0:
		return Str("")
	case 1:
		return ts[0]
	}
	return &Term{Op: OpConcat, sort: SortString, Args: ts}
}

// Len is str.len.
func Len(s *Term) *Term { return &Term{Op: OpLen, sort: SortInt, Args: []*Term{s}} }

// SuffixOf is str.suffixof: does s end with suffix?
func SuffixOf(suffix, s *Term) *Term {
	return &Term{Op: OpSuffixOf, sort: SortBool, Args: []*Term{suffix, s}}
}

// PrefixOf is str.prefixof: does s start with prefix?
func PrefixOf(prefix, s *Term) *Term {
	return &Term{Op: OpPrefixOf, sort: SortBool, Args: []*Term{prefix, s}}
}

// Contains is str.contains: does s contain sub?
func Contains(s, sub *Term) *Term {
	return &Term{Op: OpContains, sort: SortBool, Args: []*Term{s, sub}}
}

// IndexOf is str.indexof s sub from.
func IndexOf(s, sub, from *Term) *Term {
	return &Term{Op: OpIndexOf, sort: SortInt, Args: []*Term{s, sub, from}}
}

// Replace is str.replace s old new (first occurrence only, per SMT-LIB).
func Replace(s, old, new *Term) *Term {
	return &Term{Op: OpReplace, sort: SortString, Args: []*Term{s, old, new}}
}

// Substr is str.substr s off len.
func Substr(s, off, length *Term) *Term {
	return &Term{Op: OpSubstr, sort: SortString, Args: []*Term{s, off, length}}
}

// ToInt is str.to.int.
func ToInt(s *Term) *Term { return &Term{Op: OpToInt, sort: SortInt, Args: []*Term{s}} }

// FromInt is str.from.int.
func FromInt(i *Term) *Term { return &Term{Op: OpFromInt, sort: SortString, Args: []*Term{i}} }

// At is str.at.
func At(s, i *Term) *Term { return &Term{Op: OpAt, sort: SortString, Args: []*Term{s, i}} }

// --- inspection ---

// Vars returns the distinct variables of t in first-occurrence order.
func Vars(t *Term) []*Term {
	var out []*Term
	seen := map[string]bool{}
	var walk func(*Term)
	walk = func(x *Term) {
		if x == nil {
			return
		}
		if x.Op == OpVar {
			if !seen[x.S] {
				seen[x.S] = true
				out = append(out, x)
			}
			return
		}
		for _, a := range x.Args {
			walk(a)
		}
	}
	walk(t)
	return out
}

// Equal reports structural equality.
func Equal(a, b *Term) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Op != b.Op || a.sort != b.sort || a.B != b.B || a.I != b.I || a.S != b.S ||
		len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !Equal(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// String renders the term in SMT-LIB-flavoured s-expression syntax.
func (t *Term) String() string {
	var sb strings.Builder
	writeTerm(&sb, t)
	return sb.String()
}

func writeTerm(sb *strings.Builder, t *Term) {
	if t == nil {
		sb.WriteString("<nil>")
		return
	}
	switch t.Op {
	case OpBoolConst:
		sb.WriteString(strconv.FormatBool(t.B))
	case OpIntConst:
		if t.I < 0 {
			fmt.Fprintf(sb, "(- %d)", -t.I)
		} else {
			sb.WriteString(strconv.FormatInt(t.I, 10))
		}
	case OpStrConst:
		sb.WriteString(quoteSMT(t.S))
	case OpVar:
		sb.WriteString(t.S)
	default:
		sb.WriteByte('(')
		sb.WriteString(t.Op.String())
		for _, a := range t.Args {
			sb.WriteByte(' ')
			writeTerm(sb, a)
		}
		sb.WriteByte(')')
	}
}

// quoteSMT renders an SMT-LIB string literal: double quotes, with embedded
// double quotes doubled.
func quoteSMT(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Size returns the node count of t, for budget accounting.
func Size(t *Term) int {
	if t == nil {
		return 0
	}
	n := 1
	for _, a := range t.Args {
		n += Size(a)
	}
	return n
}
