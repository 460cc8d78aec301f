package summary

import (
	"encoding/json"
	"fmt"
	"strings"
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

func build(t *testing.T, src string) *Set {
	t.Helper()
	return Build([]*phpast.File{parse(t, src)})
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
func wantInlined(t *testing.T, set *Set, names ...string) {
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

func TestArtifactRoundTrip(t *testing.T) {
	file := parse(t, `
function ident($s) { return $s; }
function str() { return "up/"; }
function num() { return 7; }
function flt() { return 1.5; }
function yes() { return true; }
function nul() { return null; }
function save($tmp, $dst) { $d = 1; if ($c) { $e = 2; } move_uploaded_file($tmp, $dst); }
function files() { global $g; return $_FILES; }
function &byref() { return 1; }
`)
	fl := LocalFile(file)
	blob, err := EncodeFile(fl)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	a := Compose([]*FileLocal{fl}, nil)
	b := Compose([]*FileLocal{back}, nil)
	if len(a.Funcs) != len(b.Funcs) {
		t.Fatalf("round trip kept %d of %d summaries", len(b.Funcs), len(a.Funcs))
	}
	for name, sa := range a.Funcs {
		sb := b.Funcs[name]
		if fresh, decoded := fmt.Sprintf("%+v", sa), fmt.Sprintf("%+v", sb); fresh != decoded {
			t.Errorf("%s: round-trip mismatch:\n  fresh:   %s\n  decoded: %s", name, fresh, decoded)
		}
	}
}

func TestArtifactVersionSkew(t *testing.T) {
	fl := LocalFile(parse(t, `function f($x) { return $x; }`))
	blob, err := EncodeFile(fl)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = json.RawMessage("999")
	skewed, _ := json.Marshal(raw)
	if _, err := DecodeFile(skewed); err == nil {
		t.Fatal("version-skewed artifact decoded without error")
	}
	if _, err := DecodeFile([]byte("{not json")); err == nil {
		t.Fatal("corrupt artifact decoded without error")
	}
}
