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
// (local.go), a pure function of its declaration. A Set holds no index
// of its own: the interpreter passes the declaration it resolved in the
// scan's phpast.Program, and Lookup walks its body the first time a
// scan asks for it, so a scan pays for the functions it reaches rather
// than for every function the target declares.
package summary

import (
	"sort"
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
// rung and worker. The zero value is an empty table; it is safe for
// concurrent Lookup.
type Set struct {
	funcs    sync.Map // registered name -> *entry
	computed atomic.Int64
}

// entry is one registered name's summary, computed by the first Lookup.
type entry struct {
	once sync.Once
	sum  *Summary
}

// Lookup returns the summary of fn, the declaration the interpreter
// resolved in the scan's program table for a call or a root; nil fn
// (or a nil Set) yields nil. Facts are memoized per registered name:
// the first Lookup of a name computes them, and every later one returns
// the same *Summary.
func (s *Set) Lookup(fn *phpast.Func) *Summary {
	if s == nil || fn == nil {
		return nil
	}
	v, ok := s.funcs.Load(fn.Name)
	if !ok {
		v, _ = s.funcs.LoadOrStore(fn.Name, new(entry))
	}
	e := v.(*entry)
	e.once.Do(func() {
		e.sum = summarize(fn)
		s.computed.Add(1)
	})
	return e.sum
}

// Computed is the number of registered names whose facts Lookup has
// computed so far. It depends only on which names were looked up, not
// on their order, so a scan's total is the same at every worker count.
func (s *Set) Computed() int64 { return s.computed.Load() }

// FileLocal, LocalFile and Compose are what is left of an earlier
// per-file index. They are kept, doing no work, only because the
// benchmark module (bench/layers.go) calls and times them.
type FileLocal struct{}

// LocalFile returns an empty FileLocal; its argument is unused.
func LocalFile(*phpast.File) *FileLocal { return &FileLocal{} }

// Compose returns an empty Set; its arguments are unused.
func Compose(_ []*FileLocal, _ *smt.Factory) *Set { return new(Set) }

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
