package summary

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/phpast"
	"repro/internal/phpparser"
	"repro/internal/sexpr"
)

func parse(t *testing.T, src string) *phpast.File {
	t.Helper()
	f, errs := phpparser.Parse("test.php", "<?php\n"+src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return f
}

// table is a program table and a summary set, looked up by name the
// way the interpreter resolves a call.
type table struct {
	prog *phpast.Program
	set  *Set
}

func (tb table) Lookup(name string) *Summary { return tb.set.Lookup(tb.prog.Funcs[name]) }

func build(t *testing.T, src string) table {
	t.Helper()
	return table{phpast.NewProgram([]*phpast.File{parse(t, src)}), new(Set)}
}

func TestTrivialPassthrough(t *testing.T) {
	set := build(t, `
function ident($x) { return $x; }
function konst() { return "up/"; }
function knull() { return; }
`)
	id := set.Lookup("ident")
	if id == nil || !id.Trivial() || id.ReturnFormal != 0 {
		t.Fatalf("ident not a trivial passthrough: %+v", id)
	}
	k := set.Lookup("konst")
	if k == nil || !k.Trivial() || k.ReturnConst != sexpr.Expr(sexpr.StrVal("up/")) {
		t.Fatalf("konst not a trivial const return: %+v", k)
	}
	if kn := set.Lookup("knull"); kn.Trivial() {
		t.Error("bare return classified as trivial")
	}
}

func TestAssignedFormalNotTrivial(t *testing.T) {
	set := build(t, `function f($x) { $x = 1; return $x; }`)
	if s := set.Lookup("f"); s.ReturnFormal >= 0 {
		t.Errorf("reassigned formal still classified as passthrough: %+v", s)
	}
}

func TestEscapeTaxonomy(t *testing.T) {
	cases := []struct {
		src, reason string
	}{
		{`function f(&$x) { return $x; }`, "by-ref param"},
		{`function f(...$x) { return $x; }`, "variadic param"},
		{`function f() { global $g; return $g; }`, "global statement"},
		{`function f($x) { $x(); }`, "dynamic call"},
		{`function f($x) { call_user_func($x); }`, "call_user_func"},
		{`function f($x) { $y = function() { return 1; }; }`, "closure"},
		{`function f($x) { include $x; }`, "include"},
		{`function f($x) { static $n = 0; return $n; }`, "static variables"},
		{`function f($x) { $x->m(); }`, "method call"},
		{`function f($x) { return new Foo(); }`, "object construction"},
		{`function f($x) { $y = &$x; }`, "by-ref assignment"},
		{`function f($a) { foreach ($a as &$v) { $v = 1; } }`, "by-ref foreach"},
		{`function f($x) { exit($x); }`, "exit"},
	}
	for _, c := range cases {
		set := build(t, c.src)
		s := set.Lookup("f")
		if s == nil {
			t.Fatalf("%s: no summary", c.src)
		}
		if !s.Escapes || s.EscapeReason != c.reason {
			t.Errorf("%s: escapes=%v reason=%q, want %q", c.src, s.Escapes, s.EscapeReason, c.reason)
		}
	}
}

func TestMethodsEscape(t *testing.T) {
	set := build(t, `class C { function m($x) { return $x; } }`)
	for _, name := range []string{"c::m", "m"} {
		s := set.Lookup(name)
		if s == nil || !s.Escapes {
			t.Errorf("method %q not registered as escaping: %+v", name, s)
		}
	}
}

func TestDefaultArgsDoNotEscape(t *testing.T) {
	set := build(t, `function f($x, $mode = "w") { return $x . $mode; }`)
	s := set.Lookup("f")
	if s.Escapes {
		t.Errorf("default args escaped: %s", s.EscapeReason)
	}
}

func TestDeadAndMergeVars(t *testing.T) {
	set := build(t, `
function f($p) {
	$dead = 1;
	$dead = 2;
	$used = 3;
	if ($cond) { $dead = 4; } else { $flag = 0; }
	switch ($mode) { case 1: break; }
	echo $used;
	return $p;
}
`)
	s := set.Lookup("f")
	if got := strings.Join(s.DeadVars, ","); got != "dead,flag" {
		t.Errorf("DeadVars = %q, want \"dead,flag\"", got)
	}
	if got := strings.Join(s.MergeVars, ","); got != "cond,mode" {
		t.Errorf("MergeVars = %q, want \"cond,mode\"", got)
	}
}

func TestMergeVarExclusions(t *testing.T) {
	// A condition variable that is also read elsewhere, is a param, or
	// is a superglobal must not be mergeable.
	set := build(t, `
function f($p) {
	if ($p) { $a = 1; }
	if ($_FILES) { $b = 1; }
	if ($twice) { $c = 1; }
	echo $twice;
	global $g;
	if ($g) { $d = 1; }
}
`)
	s := set.Lookup("f")
	if len(s.MergeVars) != 0 {
		t.Errorf("MergeVars = %v, want none", s.MergeVars)
	}
}

func TestSuperglobalFormalNotTrivial(t *testing.T) {
	// A formal named like a superglobal keeps the passthrough shape,
	// but only $_FILES and $GLOBALS set a touch flag, which makes the
	// body non-trivial.
	set := build(t, `
function files($_FILES) { return $_FILES; }
function globals($GLOBALS) { return $GLOBALS; }
function post($_POST) { return $_POST; }
`)
	for name, trivial := range map[string]bool{"files": false, "globals": false, "post": true} {
		s := set.Lookup(name)
		if s.ReturnFormal != 0 || s.Trivial() != trivial {
			t.Errorf("%s: ReturnFormal=%d Trivial=%v, want 0/%v", name, s.ReturnFormal, s.Trivial(), trivial)
		}
	}
	if s := set.Lookup("files"); !s.TouchesFiles || s.TouchesGlobals {
		t.Errorf("files: TouchesFiles=%v TouchesGlobals=%v, want true/false", s.TouchesFiles, s.TouchesGlobals)
	}
}

// wantInlined checks that each named function neither escapes nor
// takes the trivial shape: the engine inlines it under merge metadata.
// Calls, sinks and recursion all land here.
func wantInlined(t *testing.T, set table, names ...string) {
	t.Helper()
	for _, name := range names {
		s := set.Lookup(name)
		if s == nil || s.Escapes || s.Trivial() {
			t.Errorf("%s: want a non-escaping, non-trivial summary: %+v", name, s)
		}
	}
}

func TestTaintThroughCalleeDropsUnusedArg(t *testing.T) {
	set := build(t, `
function first($a, $b) { return $a; }
function f($x, $y) { return first($x, $y); }
`)
	wantInlined(t, set, "f")
	if s := set.Lookup("first"); !s.Trivial() || s.ReturnFormal != 0 {
		t.Errorf("first: Trivial=%v ReturnFormal=%d, want true/0", s.Trivial(), s.ReturnFormal)
	}
	if s := set.Lookup("f"); s.ReturnFormal != -1 || s.ReturnLine != 4 {
		t.Errorf("f: ReturnFormal=%d ReturnLine=%d, want -1/4", s.ReturnFormal, s.ReturnLine)
	}
}

func TestBuiltinCallConservative(t *testing.T) {
	set := build(t, `function f($a, $b) { return substr($a, 0, 3) . $b; }`)
	wantInlined(t, set, "f")
	if s := set.Lookup("f"); s.ReturnConst != nil || s.ReturnLine != 2 {
		t.Errorf("f: ReturnConst=%v ReturnLine=%d, want nil/2", s.ReturnConst, s.ReturnLine)
	}
}

func TestSinkEffects(t *testing.T) {
	set := build(t, `
function save($tmp, $dst) { move_uploaded_file($tmp, $dst . "/f"); }
function f($t, $d) { save($t, $d); }
`)
	wantInlined(t, set, "save", "f")
	for _, name := range []string{"save", "f"} {
		if s := set.Lookup(name); s.ReturnLine != 0 || s.TouchesFiles {
			t.Errorf("%s: ReturnLine=%d TouchesFiles=%v, want 0/false", name, s.ReturnLine, s.TouchesFiles)
		}
	}
}

func TestRecursionFixpoint(t *testing.T) {
	set := build(t, `
function walk($dir, $depth) {
	if ($depth) {
		return walk($dir . "/sub", $depth);
	}
	return $dir;
}
`)
	wantInlined(t, set, "walk")
	if s := set.Lookup("walk"); s.ReturnLine != 7 {
		t.Errorf("walk ReturnLine = %d, want 7 (the last return)", s.ReturnLine)
	}
}

func TestMutualRecursionFixpoint(t *testing.T) {
	set := build(t, `
function even($n, $x) { if ($n) { return odd($n, $x); } return $x; }
function odd($n, $x) { if ($n) { return even($n, $x); } return "done"; }
`)
	wantInlined(t, set, "even", "odd")
	// odd ends in a literal return, but the call before it rules out
	// the trivial shape.
	if s := set.Lookup("odd"); s.ReturnConst != nil || s.ReturnLine != 4 {
		t.Errorf("odd: ReturnConst=%v ReturnLine=%d, want nil/4", s.ReturnConst, s.ReturnLine)
	}
}

// TestLookupComputesOnce has 8 goroutines look up every registered
// name at once (run it under -race): each name must yield one *Summary
// shared by every caller, a method's bare name the same one as its
// qualified name, and each declaration is computed exactly once.
func TestLookupComputesOnce(t *testing.T) {
	tb := build(t, `
function ident($x) { return $x; }
function konst() { return "up/"; }
function save($tmp, $dst) { if ($c) { $d = 1; } move_uploaded_file($tmp, $dst); }
function outer() { function inner() { return 1; } }
class C { function m($x) { return $x; } }
`)
	names := make([]string, 0, len(tb.prog.Funcs))
	for n := range tb.prog.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	if got := strings.Join(names, ","); got != "c::m,ident,inner,konst,m,outer,save" {
		t.Fatalf("registered names = %s", got)
	}
	if tb.set.Computed() != 0 {
		t.Fatalf("a new Set computed %d summaries, want 0", tb.set.Computed())
	}
	const goroutines = 8
	got := make([][]*Summary, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range names {
				got[g] = append(got[g], tb.Lookup(n))
			}
			tb.Lookup("undeclared")
		}()
	}
	wg.Wait()
	for i, n := range names {
		if got[0][i] == nil {
			t.Errorf("%s: nil summary", n)
		}
		for g := 1; g < goroutines; g++ {
			if got[g][i] != got[0][i] {
				t.Errorf("%s: goroutine %d got a different *Summary", n, g)
			}
		}
	}
	if m, cm := tb.Lookup("m"), tb.Lookup("c::m"); m != cm {
		t.Errorf("bare name m and c::m resolve to different summaries")
	}
	if c := tb.set.Computed(); c != 6 {
		t.Errorf("Computed = %d, want 6 (one per declaration)", c)
	}
}
