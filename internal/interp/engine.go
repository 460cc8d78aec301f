package interp

import (
	"fmt"

	"repro/internal/heapgraph"
	"repro/internal/phpast"
)

// EngineKind names a symbolic-execution engine. The recursive AST walker
// is the only one; the type and its single value remain because the
// separately built benchmark module constructs engines through
// NewEngineFactory(EngineTree, files).
type EngineKind string

// EngineTree is the recursive AST walker.
const EngineTree EngineKind = "tree"

// InterprocKind selects the interprocedural call strategy.
type InterprocKind string

const (
	// InterprocInline inlines every user-function call (the default,
	// and the paper's behavior).
	InterprocInline InterprocKind = "inline"
	// InterprocSummary instantiates per-function symbolic summaries
	// where possible (trivial returns without a frame; path merging at
	// statement boundaries inside summarized scopes) and falls back to
	// inlining for escaped callees.
	InterprocSummary InterprocKind = "summary"
)

// ParseInterprocKind parses a -interproc flag value. The empty string
// selects inlining.
func ParseInterprocKind(s string) (InterprocKind, error) {
	switch s {
	case "", string(InterprocInline):
		return InterprocInline, nil
	case string(InterprocSummary):
		return InterprocSummary, nil
	default:
		return "", fmt.Errorf("unknown interproc mode %q (want inline or summary)", s)
	}
}

// EngineFactory builds per-root interpreters over one scan's program
// table, which it builds once: every root, retry rung and worker of the
// scan shares it, and New walks no AST.
type EngineFactory struct {
	prog *phpast.Program
}

// NewEngineFactory returns the factory for a scan's parsed files. The
// kind is always EngineTree (see EngineKind).
func NewEngineFactory(_ EngineKind, files []*phpast.File) *EngineFactory {
	return &EngineFactory{prog: phpast.NewProgram(files)}
}

// New builds a fresh interpreter (fresh heap graph and statistics) for
// one root execution.
func (f *EngineFactory) New(opts Options) *Interp {
	return &Interp{
		opts:        opts.withDefaults(),
		g:           heapgraph.New(),
		prog:        f.prog,
		filesFields: map[string]heapgraph.Label{},
		superGlobs:  map[string]heapgraph.Label{},
	}
}
