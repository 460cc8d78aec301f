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
// The facts come from one syntactic walk over a function's body
// (local.go), a pure function of its declaration. A Set only indexes
// the declarations up front; Lookup walks a body the first time a scan
// asks for it, so a scan pays for the functions it reaches rather than
// for every function the target declares.
package summary

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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

// Set is the summary table for one scan, shared by every root, retry
// rung and worker. It is safe for concurrent Lookup.
type Set struct {
	funcs    map[string]*entry
	computed atomic.Int64
}

// entry is one registered name: the declaration that won it (a
// *phpast.FuncDecl or *phpast.ClassMethod) and, once some Lookup asked
// for it, its summary.
type entry struct {
	file *phpast.File
	decl phpast.Node
	once sync.Once
	sum  *Summary
}

// Lookup returns the summary registered under the interpreter's
// lowercase name for the callee, or nil. The first call for a name
// computes its facts; every later call returns the same *Summary.
func (s *Set) Lookup(lname string) *Summary {
	if s == nil {
		return nil
	}
	e := s.funcs[lname]
	if e == nil {
		return nil
	}
	e.once.Do(func() {
		e.sum = summarize(lname, e.file.Name, e.decl)
		s.computed.Add(1)
	})
	return e.sum
}

// Computed is the number of registered functions whose facts Lookup
// has computed so far. It depends only on which names were looked up,
// not on their order, so a scan's total is the same at every worker
// count.
func (s *Set) Computed() int64 { return s.computed.Load() }

// Build indexes the functions of a set of parsed files without walking
// any body. Name registration mirrors the interpreter's declare():
// FuncDecls under their lowercase name, class methods under both the
// qualified "class::method" and the bare method name, and the first
// declaration wins, so the file order must match the interpreter's.
func Build(files []*phpast.File) *Set {
	set := &Set{funcs: map[string]*entry{}}
	for _, f := range files {
		add := func(name string, decl phpast.Node) {
			if _, ok := set.funcs[name]; !ok {
				set.funcs[name] = &entry{file: f, decl: decl}
			}
		}
		phpast.Walk(f, func(n phpast.Node) bool {
			switch d := n.(type) {
			case *phpast.FuncDecl:
				add(lower(d.Name), d)
			case *phpast.ClassDecl:
				for _, m := range d.Methods {
					add(lower(d.Name+"::"+m.Name), m)
					add(lower(m.Name), m)
				}
				return false // methods handled; don't re-walk as nested decls
			}
			return true
		})
	}
	return set
}

// FileLocal is one parsed file as Compose takes it. LocalFile and
// Compose split Build in two only because the benchmark module
// (bench/layers.go) calls and times them separately.
type FileLocal struct{ file *phpast.File }

// LocalFile wraps one parsed file for Compose.
func LocalFile(f *phpast.File) *FileLocal { return &FileLocal{file: f} }

// Compose is Build over the wrapped files, in order; nil entries are
// skipped. The factory argument is unused.
func Compose(locals []*FileLocal, _ *smt.Factory) *Set {
	files := make([]*phpast.File, 0, len(locals))
	for _, fl := range locals {
		if fl != nil {
			files = append(files, fl.file)
		}
	}
	return Build(files)
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
