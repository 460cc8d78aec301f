// Package summary computes per-function summaries for the
// interprocedural engine's -interproc summary strategy. A summary holds
// exactly the facts a call site reads:
//
//   - an escape verdict for constructs the strategy cannot describe
//     (by-ref params, dynamic calls, closures, includes, ...); the
//     engine inlines escaped callees plainly, so findings never
//     silently change;
//   - the trivial-return shape (see Summary.Trivial), which lets a call
//     site instantiate `return <formal>` and `return <literal>` bodies
//     without pushing a frame;
//   - the dead and merge variable sets behind statement-boundary path
//     merging.
//
// The facts come from one syntactic walk per function (local.go). The
// walk is a pure function of one file's content, and therefore
// cacheable as a per-file artifact (artifact.go). Compose only resolves
// duplicate names across files.
package summary

import (
	"sort"
	"strings"

	"repro/internal/phpast"
	"repro/internal/sexpr"
	"repro/internal/smt"
)

// Summary is the engine-facing summary of one function.
type Summary struct {
	Name string // lowercase registered name
	File string
	Line int

	// Escapes marks functions the summary strategy cannot describe;
	// the engine must inline them. EscapeReason names the first
	// escaping construct found (for tests and debugging).
	Escapes      bool
	EscapeReason string

	// ReturnFormal / ReturnConst describe trivially instantiable
	// bodies (see Trivial): ReturnFormal >= 0 means the body returns
	// formal i unchanged; ReturnConst non-nil means it returns that
	// scalar constant, allocated at ReturnLine (the literal's line).
	// Otherwise ReturnLine is the line of the last value-returning
	// statement, or 0.
	ReturnFormal int
	ReturnConst  sexpr.Expr
	ReturnLine   int

	TouchesFiles   bool // reads $_FILES
	TouchesGlobals bool // global statement or $GLOBALS access

	// DeadVars are locals whose every occurrence is a plain
	// assignment target: their values are never observed, so two
	// paths differing only in them are observably equal. MergeVars
	// are single-use condition variables (the entire if-condition or
	// switch-subject); path conditions over them are independent
	// literals, which is what makes statement-boundary path merging
	// exact. Both are sorted.
	DeadVars  []string
	MergeVars []string
}

// Trivial reports whether a call site may instantiate this summary
// without pushing a frame at all: the body is declarations and no-ops
// plus a single `return <formal>` or `return <scalar literal>`.
// Instantiation of such a body is byte-identical to inlining it. The
// shape itself rules out calls, sinks and forks; the touch flags reject
// a formal named $_FILES or $GLOBALS.
func (s *Summary) Trivial() bool {
	return !s.Escapes && !s.TouchesFiles && !s.TouchesGlobals &&
		(s.ReturnFormal >= 0 || s.ReturnConst != nil)
}

// Set is the full summary table for one scan.
type Set struct {
	Funcs map[string]*Summary

	// Computed counts function summaries computed fresh this scan;
	// CacheHits counts per-file artifacts served from the
	// content-addressed cache. Both feed scan-level metrics.
	Computed  int
	CacheHits int
}

// Lookup returns the summary registered under the interpreter's
// lowercase name for the callee, or nil.
func (s *Set) Lookup(lname string) *Summary {
	if s == nil {
		return nil
	}
	return s.Funcs[lname]
}

// Build computes summaries for a set of parsed files. The file order
// must match the interpreter's, because both resolve duplicate
// function names first-declaration-wins.
func Build(files []*phpast.File) *Set {
	locals := make([]*FileLocal, 0, len(files))
	for _, f := range files {
		locals = append(locals, LocalFile(f))
	}
	set := Compose(locals, nil)
	for _, fl := range locals {
		set.Computed += len(fl.Funcs)
	}
	return set
}

// Compose builds the summary table from per-file local layers. File
// order decides duplicate-name resolution (first declaration wins),
// matching the interpreter. The factory argument is unused; it stays
// because the benchmark module (bench/layers.go) calls Compose with one.
func Compose(locals []*FileLocal, _ *smt.Factory) *Set {
	set := &Set{Funcs: map[string]*Summary{}}
	for _, fl := range locals {
		if fl == nil {
			continue
		}
		for _, fn := range fl.Funcs {
			if _, ok := set.Funcs[fn.Name]; !ok {
				set.Funcs[fn.Name] = fn.summary()
			}
		}
	}
	return set
}

// summary converts one function's local layer into its Summary.
func (fn *FuncLocal) summary() *Summary {
	return &Summary{
		Name:           fn.Name,
		File:           fn.File,
		Line:           fn.Line,
		Escapes:        fn.Escapes,
		EscapeReason:   fn.EscapeReason,
		ReturnFormal:   fn.RetFormal,
		ReturnConst:    fn.retConst(),
		ReturnLine:     fn.RetLine,
		TouchesFiles:   fn.TouchesFiles,
		TouchesGlobals: fn.TouchesGlobals,
		DeadVars:       fn.DeadVars,
		MergeVars:      fn.MergeVars,
	}
}

func (fn *FuncLocal) retConst() sexpr.Expr {
	switch fn.RetConstKind {
	case "str":
		return sexpr.StrVal(fn.RetConstStr)
	case "int":
		return sexpr.IntVal(fn.RetConstInt)
	case "float":
		return sexpr.FloatVal(fn.RetConstF)
	case "bool":
		return sexpr.BoolVal(fn.RetConstBool)
	case "null":
		return sexpr.NullVal{}
	}
	return nil
}

// superglobals must never be treated as mergeable condition variables
// or dead locals: their values are shared with the caller's world.
var superglobals = map[string]bool{
	"_FILES": true, "_GET": true, "_POST": true, "_REQUEST": true,
	"_COOKIE": true, "_SERVER": true, "_SESSION": true,
	"GLOBALS": true, "_ENV": true,
}

func sortedNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func lower(s string) string { return strings.ToLower(s) }
