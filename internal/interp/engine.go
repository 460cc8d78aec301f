package interp

import (
	"fmt"

	"repro/internal/heapgraph"
	"repro/internal/phpast"
)

// EngineKind names a symbolic-execution engine. The recursive AST walker
// is the only one; the type and its single value remain because the
// separately built benchmark module constructs engines through
// NewEngineFactory(EngineTree, files). The scanner calls NewEngines.
type EngineKind string

// EngineTree is the recursive AST walker.
const EngineTree EngineKind = "tree"

// InterprocKind selects the interprocedural call strategy.
type InterprocKind string

const (
	// InterprocInline inlines every user-function call (the default,
	// and the paper's behavior).
	InterprocInline InterprocKind = "inline"
	// InterprocSummary inlines every call as InterprocInline does and
	// merges observably equivalent paths at statement boundaries inside
	// the frames of callees whose per-function summary does not escape;
	// escaped callees inline plainly.
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
// table: every root, retry rung and worker of the scan shares it, and
// New walks no AST.
type EngineFactory struct {
	prog *phpast.Program
}

// NewEngines returns the factory over a scan's program table, the same
// table the scan's call graph is built from.
func NewEngines(prog *phpast.Program) *EngineFactory {
	return &EngineFactory{prog: prog}
}

// NewEngineFactory builds the program table of a scan's parsed files
// and returns NewEngines over it. The kind is always EngineTree (see
// EngineKind). It remains for the separately built benchmark module
// and the tests; the scanner builds its table once and calls NewEngines.
func NewEngineFactory(_ EngineKind, files []*phpast.File) *EngineFactory {
	return NewEngines(phpast.NewProgram(files))
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
