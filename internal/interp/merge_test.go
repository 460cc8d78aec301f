package interp

import (
	"testing"

	"repro/internal/heapgraph"
	"repro/internal/sexpr"
	"repro/internal/summary"
)

// runSummary runs the file root of one file under the tree engine with
// the summary strategy on.
func runSummary(t *testing.T, src string) Result {
	t.Helper()
	return run(t, src, Options{Summaries: new(summary.Set)})
}

// TestMergeCollapsesDeadStoreBranch: a branch whose only effect is a
// dead store leaves both paths observably identical, so they merge back
// to one at the next statement boundary.
func TestMergeCollapsesDeadStoreBranch(t *testing.T) {
	src := `<?php
function handler() {
	if ($c) { $flag = 1; } else { $flag = 0; }
	$pad = 1;
	move_uploaded_file($_FILES['f']['tmp_name'], "up/x.php");
}
handler();
`
	inline := run(t, src, Options{})
	sum := runSummary(t, src)
	if inline.Paths != 2 {
		t.Fatalf("inline paths = %d, want 2", inline.Paths)
	}
	if sum.Paths != 1 {
		t.Errorf("summary paths = %d, want 1", sum.Paths)
	}
	if sum.Stats.PathsAvoided != 1 {
		t.Errorf("PathsAvoided = %d, want 1", sum.Stats.PathsAvoided)
	}
	// The survivor is the first (then-arm) path, and the sink hit count
	// collapses with it — one hit on the surviving path versus two.
	if len(inline.Sinks) != 2 || len(sum.Sinks) != 1 {
		t.Fatalf("sinks inline=%d summary=%d, want 2/1", len(inline.Sinks), len(sum.Sinks))
	}
	if inline.Sinks[0].Line != sum.Sinks[0].Line || inline.Sinks[0].Sink != sum.Sinks[0].Sink {
		t.Errorf("surviving sink differs: %+v vs %+v", inline.Sinks[0], sum.Sinks[0])
	}
}

// TestMergeSwitchArms: a switch over one single-use variable produces
// equality-literal suffixes with pairwise-distinct comparands (including
// the default arm's conjunction of negations), all mergeable.
func TestMergeSwitchArms(t *testing.T) {
	src := `<?php
function handler() {
	switch ($s) {
	case 1: $flag = 1; break;
	case 2: $flag = 2; break;
	default: $flag = 0;
	}
	$pad = 1;
	move_uploaded_file($_FILES['f']['tmp_name'], "up/x.php");
}
handler();
`
	inline := run(t, src, Options{})
	sum := runSummary(t, src)
	if inline.Paths != 3 {
		t.Fatalf("inline paths = %d, want 3", inline.Paths)
	}
	if sum.Paths != 1 {
		t.Errorf("summary paths = %d, want 1 (avoided=%d)", sum.Paths, sum.Stats.PathsAvoided)
	}
}

// TestMergeCompoundsAcrossStatements: N sequential dead-store branches
// explode to 2^N paths inline but stay at one path under merging — the
// Cimy shape in miniature.
func TestMergeCompoundsAcrossStatements(t *testing.T) {
	src := `<?php
function handler() {
	if ($a) { $fa = 1; } else { $fa = 0; }
	if ($b) { $fb = 1; } else { $fb = 0; }
	if ($c) { $fc = 1; } else { $fc = 0; }
	if ($d) { $fd = 1; } else { $fd = 0; }
	move_uploaded_file($_FILES['f']['tmp_name'], "up/x.php");
}
handler();
`
	inline := run(t, src, Options{})
	sum := runSummary(t, src)
	if inline.Paths != 16 {
		t.Fatalf("inline paths = %d, want 16", inline.Paths)
	}
	if sum.Paths != 1 {
		t.Errorf("summary paths = %d, want 1", sum.Paths)
	}
	if sum.Stats.PathsAvoided != 4 {
		// One fork is reclaimed per boundary: 2->1 four times.
		t.Errorf("PathsAvoided = %d, want 4", sum.Stats.PathsAvoided)
	}
}

// TestNoMergeWhenVariableLive: when the branched-on flag is read later,
// the paths differ observably and must all survive.
func TestNoMergeWhenVariableLive(t *testing.T) {
	src := `<?php
function handler() {
	if ($c) { $flag = 1; } else { $flag = 0; }
	move_uploaded_file($_FILES['f']['tmp_name'], "up/" . $flag . ".php");
}
handler();
`
	inline := run(t, src, Options{})
	sum := runSummary(t, src)
	if inline.Paths != sum.Paths {
		t.Errorf("paths diverged: inline=%d summary=%d", inline.Paths, sum.Paths)
	}
	if sum.Stats.PathsAvoided != 0 {
		t.Errorf("PathsAvoided = %d, want 0", sum.Stats.PathsAvoided)
	}
}

// TestNoMergeWhenConditionReused: a condition variable read twice is
// outside the single-use literal vocabulary — its second branch's
// suffix would not be independently satisfiable, so no merge.
func TestNoMergeWhenConditionReused(t *testing.T) {
	src := `<?php
function handler() {
	if ($c) { $fa = 1; } else { $fa = 0; }
	if ($c) { $fb = 1; } else { $fb = 0; }
	move_uploaded_file($_FILES['f']['tmp_name'], "up/x.php");
}
handler();
`
	inline := run(t, src, Options{})
	sum := runSummary(t, src)
	if inline.Paths != sum.Paths {
		t.Errorf("paths diverged: inline=%d summary=%d", inline.Paths, sum.Paths)
	}
	if sum.Stats.PathsAvoided != 0 {
		t.Errorf("PathsAvoided = %d, want 0", sum.Stats.PathsAvoided)
	}
}

// TestTrivialReturnFormalInstantiated: an identity-shaped helper is
// answered from its summary — no frame push, the actual's label is the
// return value — and the result is indistinguishable from inlining.
func TestTrivialReturnFormalInstantiated(t *testing.T) {
	src := `<?php
function pick($x, $y) { return $y; }
$v = pick("a", $_FILES['f']['name']);
move_uploaded_file($_FILES['f']['tmp_name'], "up/" . $v);
`
	inline := run(t, src, Options{})
	sum := runSummary(t, src)
	if sum.Stats.SummaryInstantiated != 1 {
		t.Errorf("SummaryInstantiated = %d, want 1", sum.Stats.SummaryInstantiated)
	}
	if len(inline.Sinks) != 1 || len(sum.Sinks) != 1 {
		t.Fatalf("sinks inline=%d summary=%d, want 1/1", len(inline.Sinks), len(sum.Sinks))
	}
	is, ss := inline.Sinks[0], sum.Sinks[0]
	a := sexprString(inline, is.Dst)
	b := sexprString(sum, ss.Dst)
	if a != b {
		t.Errorf("dst differs: inline=%s summary=%s", a, b)
	}
}

// TestTrivialReturnConstInstantiated: a constant-returning helper is
// answered with one shared concrete allocation at the literal's line.
func TestTrivialReturnConstInstantiated(t *testing.T) {
	src := `<?php
function updir() { return "uploads/"; }
move_uploaded_file($_FILES['f']['tmp_name'], updir() . "x.php");
`
	inline := run(t, src, Options{})
	sum := runSummary(t, src)
	if sum.Stats.SummaryInstantiated != 1 {
		t.Errorf("SummaryInstantiated = %d, want 1", sum.Stats.SummaryInstantiated)
	}
	a := sexprString(inline, inline.Sinks[0].Dst)
	b := sexprString(sum, sum.Sinks[0].Dst)
	if a != b {
		t.Errorf("dst differs: inline=%s summary=%s", a, b)
	}
}

// TestEscapedCalleeFallsBackToInline: a by-ref callee escapes
// summarization; the engine counts it and inlines, with identical
// observable results.
func TestEscapedCalleeFallsBackToInline(t *testing.T) {
	src := `<?php
function fill(&$out) { $out = $_FILES['f']['name']; }
fill($v);
move_uploaded_file($_FILES['f']['tmp_name'], "up/" . $v);
`
	inline := run(t, src, Options{})
	sum := runSummary(t, src)
	if sum.Stats.SummaryEscapedCallees != 1 {
		t.Errorf("SummaryEscapedCallees = %d, want 1", sum.Stats.SummaryEscapedCallees)
	}
	if sum.Stats.SummaryInstantiated != 0 {
		t.Errorf("SummaryInstantiated = %d, want 0", sum.Stats.SummaryInstantiated)
	}
	a := sexprString(inline, inline.Sinks[0].Dst)
	b := sexprString(sum, sum.Sinks[0].Dst)
	if a != b {
		t.Errorf("dst differs: inline=%s summary=%s", a, b)
	}
}

// TestMethodCallNeverSummarized: $this-bound frames bypass the strategy
// seam entirely (the gate is thisLabel == Null), so methods behave
// exactly as inline even when a same-named summary exists.
func TestMethodCallNeverSummarized(t *testing.T) {
	src := `<?php
class U {
	function dest() { return "up/x.php"; }
	function go() { move_uploaded_file($_FILES['f']['tmp_name'], $this->dest()); }
}
$u = new U();
$u->go();
`
	inline := run(t, src, Options{})
	sum := runSummary(t, src)
	if sum.Stats.SummaryInstantiated != 0 {
		t.Errorf("SummaryInstantiated = %d, want 0 for method calls", sum.Stats.SummaryInstantiated)
	}
	if len(inline.Sinks) != len(sum.Sinks) {
		t.Errorf("sinks diverged: inline=%d summary=%d", len(inline.Sinks), len(sum.Sinks))
	}
}

// sexprString renders one label of a result's graph.
func sexprString(res Result, l heapgraph.Label) string {
	return sexpr.Format(res.Graph.ToSexpr(l))
}
