// Package vulnmodel builds UChecker's per-sink vulnerability model
// (Section III-C of the paper).
//
// A sink invocation move_uploaded_file(e_src, e_dst) — or
// file_put_contents(e_dst, e_src) — is exploitable on a path when three
// conditions hold simultaneously:
//
//	Constraint-1  e_src is tainted by $_FILES (a heap-graph path exists
//	              from the source object to the $_FILES object);
//	Constraint-2  e_dst can end with an executable extension
//	              ((str.suffixof ".php" trl(se_dst)));
//	Constraint-3  the path's reachability constraint is satisfiable
//	              (trl(se_reachability)).
//
// Constraint-1 is decided structurally here; Constraints 2 and 3 are
// emitted as one conjoined SMT term for the solver.
package vulnmodel

import (
	"repro/internal/heapgraph"
	"repro/internal/sexpr"
	"repro/internal/smt"
	"repro/internal/translate"
)

// DefaultExtensions is the paper's executable-extension list. Section VI
// notes variants (".asa", ".swf", ".phtml") are covered by extending it.
var DefaultExtensions = []string{".php", ".php5"}

// Candidate is the vulnerability model of one sink invocation on one path.
type Candidate struct {
	// Sink is the sink function name.
	Sink string
	// File and Line locate the call in source.
	File string
	Line int

	// Tainted is Constraint-1's verdict.
	Tainted bool

	// SeDst and SeReach are the PHP-semantics s-expressions of the
	// destination name and the reachability constraint (the paper's se_dst
	// and se_reachability). SeReach is nil for unconditional paths.
	// Describe fills them; Model leaves them nil.
	SeDst   sexpr.Expr
	SeReach sexpr.Expr

	// Extension is Constraint-2 as an SMT term; Reach is Constraint-3;
	// Combined is their conjunction, the formula handed to the solver.
	Extension *smt.Term
	Reach     *smt.Term
	Combined  *smt.Term
	// DstTerm is the translated destination path; evaluating it under a
	// satisfying model yields the concrete server path the exploit writes.
	DstTerm *smt.Term

	// Lines are the source lines of every heap-graph object contributing
	// to the destination or the reachability constraint — the
	// source-code-level feedback the paper's AST-based design enables.
	// Describe fills them; Model leaves them nil.
	Lines []int
}

// Sink describes a recorded sink invocation, decoupled from the
// interpreter's type to avoid an import cycle.
type Sink struct {
	Name string
	File string
	Line int
	Src  heapgraph.Label
	Dst  heapgraph.Label
	Cur  heapgraph.Label // reachability constraint object (Null = always)
}

// Model builds the candidate's constraints for one sink on one path. tr
// must be a translator over the same heap graph; sharing one translator
// across the sinks of an application keeps fallback symbols stable. The
// report-only fields are left to Describe.
func Model(g *heapgraph.Graph, tr *translate.Translator, s Sink, extensions []string) Candidate {
	if len(extensions) == 0 {
		extensions = DefaultExtensions
	}
	c := Candidate{
		Sink: s.Name,
		File: s.File,
		Line: s.Line,
	}

	// Constraint-1: taint.
	c.Tainted = s.Src != heapgraph.Null && g.ReachesName(s.Src, "$_FILES")

	// Constraint-2: the destination ends with an executable extension.
	// Construction routes through the translator's factory (nil-safe), so
	// sinks sharing a destination — and every sink of a root sharing the
	// same extension list — produce pointer-equal constraint terms the
	// solver's memo tables key on.
	f := tr.Factory()
	dst := tr.Label(s.Dst, smt.SortString)
	c.DstTerm = dst
	var opts []*smt.Term
	for _, ext := range extensions {
		opts = append(opts, f.SuffixOf(f.Str(ext), dst))
	}
	c.Extension = f.Or(opts...)

	// Constraint-3: path reachability.
	if s.Cur != heapgraph.Null {
		c.Reach = tr.Label(s.Cur, smt.SortBool)
	} else {
		c.Reach = smt.True()
	}

	c.Combined = f.And(c.Extension, c.Reach)
	return c
}

// Describe fills the fields of c that only a report reads: the PHP-level
// s-expressions of the destination and the reachability constraint, and
// the source lines that built either one. s must be the sink c was
// modelled from. Both graph walks are pure, so a candidate described
// after it was solved reads exactly as one described when modelled.
func Describe(g *heapgraph.Graph, s Sink, c *Candidate) {
	c.SeDst = g.ToSexpr(s.Dst)
	if s.Cur != heapgraph.Null {
		c.SeReach = g.ToSexpr(s.Cur)
	}

	// Source lines involved in either constraint.
	seen := map[int]bool{}
	for _, ln := range g.Lines(s.Dst) {
		seen[ln] = true
	}
	for _, ln := range g.Lines(s.Cur) {
		seen[ln] = true
	}
	seen[s.Line] = true
	for ln := range seen {
		c.Lines = append(c.Lines, ln)
	}
	sortInts(c.Lines)
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
