// Budgets: the scanner-owned resource-budget surface.
//
// The interpreter and the solver each used to expose a Halved() method,
// and the degradation ladder called both — two half-policies in two
// packages that had to stay in sync by convention. Budgets centralizes
// every bound in one struct owned by uchecker.Options: the ladder calls
// Budgets.Halve (one place, one policy, the historical floors preserved)
// and materializes the per-layer option structs via interpOptions /
// solverOptions at the rung boundary.
package uchecker

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/smt"
)

// Budgets bounds the per-root resource consumption of symbolic execution
// (first four fields) and SMT model search (last four). The zero value
// selects the defaults of the respective layer, so a zero Budgets is the
// paper's configuration — and, deliberately, fingerprints identically to
// the zero-value option structs it replaces (journaled sweeps and cached
// reports from before the consolidation stay valid).
type Budgets struct {
	// MaxPaths bounds the number of live execution paths. Default 100000.
	MaxPaths int
	// MaxObjects bounds the heap-graph object count. Default 1500000.
	MaxObjects int
	// LoopUnroll is the number of iterations loops are unrolled to.
	// Default 2.
	LoopUnroll int
	// MaxCallDepth bounds user-function inlining depth. Default 24.
	MaxCallDepth int
	// MaxCubes bounds the solver's DNF expansion. Default 4096.
	MaxCubes int
	// MaxAssignments bounds the total candidate assignments tried across
	// all cubes. Default 500000.
	MaxAssignments int
	// MaxStrCandidates bounds the per-variable string candidate set.
	// Default 96.
	MaxStrCandidates int
	// MaxIntCandidates bounds the per-variable integer candidate set.
	// Default 48.
	MaxIntCandidates int
}

// withDefaults resolves zero fields to the layer defaults.
func (b Budgets) withDefaults() Budgets {
	if b.MaxPaths == 0 {
		b.MaxPaths = 100000
	}
	if b.MaxObjects == 0 {
		b.MaxObjects = 1500000
	}
	if b.LoopUnroll == 0 {
		b.LoopUnroll = 2
	}
	if b.MaxCallDepth == 0 {
		b.MaxCallDepth = 24
	}
	if b.MaxCubes == 0 {
		b.MaxCubes = 4096
	}
	if b.MaxAssignments == 0 {
		b.MaxAssignments = 500000
	}
	if b.MaxStrCandidates == 0 {
		b.MaxStrCandidates = 96
	}
	if b.MaxIntCandidates == 0 {
		b.MaxIntCandidates = 48
	}
	return b
}

// Validate rejects a negative budget. Zero selects the layer default; a
// negative bound would fail every root at its first check, and the app
// would be reported not vulnerable with its analysis incomplete.
func (b Budgets) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"MaxPaths", b.MaxPaths},
		{"MaxObjects", b.MaxObjects},
		{"LoopUnroll", b.LoopUnroll},
		{"MaxCallDepth", b.MaxCallDepth},
		{"MaxCubes", b.MaxCubes},
		{"MaxAssignments", b.MaxAssignments},
		{"MaxStrCandidates", b.MaxStrCandidates},
		{"MaxIntCandidates", b.MaxIntCandidates},
	} {
		if f.v < 0 {
			return fmt.Errorf("budget %s is %d: want 0 (the default) or a positive bound", f.name, f.v)
		}
	}
	return nil
}

// Halve is one rung of the degradation ladder: every budget cut in half
// after default resolution, and never raised. Interpreter bounds floor
// at 1 — besides the raw path/object budgets, the loop-unroll bound and
// inlining depth are halved too, so a retry explores a coarser (cheaper)
// model rather than just aborting earlier on the same explosion. Solver
// candidate-set sizes keep the historical floors (8 strings, 4 integers)
// so the small-model search still has literals to work with; a set
// already below its floor keeps its size.
func (b Budgets) Halve() Budgets {
	b = b.withDefaults()
	b.MaxPaths = max(1, b.MaxPaths/2)
	b.MaxObjects = max(1, b.MaxObjects/2)
	b.LoopUnroll = max(1, b.LoopUnroll/2)
	b.MaxCallDepth = max(1, b.MaxCallDepth/2)
	b.MaxCubes = max(1, b.MaxCubes/2)
	b.MaxAssignments = max(1, b.MaxAssignments/2)
	b.MaxStrCandidates = max(min(8, b.MaxStrCandidates), b.MaxStrCandidates/2)
	b.MaxIntCandidates = max(min(4, b.MaxIntCandidates), b.MaxIntCandidates/2)
	return b
}

// interpOptions materializes the symbolic-execution slice of the budget
// set. The mapping is 1:1 and zero-preserving: a zero Budgets yields a
// zero interp.Options, keeping the options fingerprint (which prints the
// materialized structs) stable across the consolidation.
func (b Budgets) interpOptions() interp.Options {
	return interp.Options{
		MaxPaths:     b.MaxPaths,
		MaxObjects:   b.MaxObjects,
		LoopUnroll:   b.LoopUnroll,
		MaxCallDepth: b.MaxCallDepth,
	}
}

// solverOptions materializes the SMT slice of the budget set; 1:1 and
// zero-preserving like interpOptions.
func (b Budgets) solverOptions() smt.Options {
	return smt.Options{
		MaxCubes:         b.MaxCubes,
		MaxAssignments:   b.MaxAssignments,
		MaxStrCandidates: b.MaxStrCandidates,
		MaxIntCandidates: b.MaxIntCandidates,
	}
}
