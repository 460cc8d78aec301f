package interp

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/heapgraph"
	"repro/internal/phpast"
	"repro/internal/phpparser"
	"repro/internal/sexpr"
)

// run parses a single file and executes it as a file-level root.
func run(t *testing.T, src string, opts Options) Result {
	t.Helper()
	f, errs := phpparser.Parse("test.php", src)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs)
	}
	in := New([]*phpast.File{f}, opts)
	root := &callgraph.Node{Kind: callgraph.FileNode, Name: "test.php", File: "test.php"}
	return in.Run(context.Background(), root)
}

// pathSexprs renders the reachability constraint of every final path.
func pathSexprs(res Result) []string {
	var out []string
	for _, e := range res.Envs {
		out = append(out, sexpr.Format(res.Graph.ToSexpr(e.Cur)))
	}
	return out
}

// TestParseInterprocKind covers the -interproc flag value every CLI
// parses: the empty string and "inline" select inlining, and an unknown
// value is an error that names it.
func TestParseInterprocKind(t *testing.T) {
	for _, c := range []struct {
		in   string
		want InterprocKind
	}{
		{"", InterprocInline},
		{"inline", InterprocInline},
		{"summary", InterprocSummary},
	} {
		if got, err := ParseInterprocKind(c.in); err != nil || got != c.want {
			t.Errorf("ParseInterprocKind(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	if _, err := ParseInterprocKind("bogus"); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("ParseInterprocKind(\"bogus\") error = %v, want one naming \"bogus\"", err)
	}
}

// Listing 2 of the paper: two paths with reachability (> (+ s 55) 10) and
// its negation (Figure 4).
func TestListing2Figure4(t *testing.T) {
	src := `<?php
$a = 55;
$a = $b + $a;
if ($a > 10) {
	$a = 22 - $b;
} else {
	$a = 88;
}
`
	res := run(t, src, Options{})
	if res.Err != nil {
		t.Fatalf("err: %v", res.Err)
	}
	if res.Paths != 2 {
		t.Fatalf("paths = %d, want 2", res.Paths)
	}
	got := pathSexprs(res)
	// $b is uninitialized -> symbol. Symbol names are generated (s_$b).
	wantTrue := "(> (+ s_$b 55) 10)"
	wantFalse := "(! (> (+ s_$b 55) 10))"
	if got[0] != wantTrue || got[1] != wantFalse {
		t.Errorf("reachability = %v, want [%s %s]", got, wantTrue, wantFalse)
	}
	// Path values of $a: (- 22 s_$b) and 88.
	aTrue := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("a")))
	aFalse := sexpr.Format(res.Graph.ToSexpr(res.Envs[1].Get("a")))
	if aTrue != "(- 22 s_$b)" {
		t.Errorf("a(true) = %s", aTrue)
	}
	if aFalse != "88" {
		t.Errorf("a(false) = %s", aFalse)
	}
	// Object sharing: both envs bind $b to the same label.
	if res.Envs[0].Get("b") != res.Envs[1].Get("b") {
		t.Error("$b object should be shared")
	}
}

// Listing 3 / Figure 5: array accesses over $_FILES and unknown arrays.
func TestListing3Figure5(t *testing.T) {
	src := `<?php
$myfile = $_FILES['upload_file'];
$name = $myfile['name'];
$rnd = $test['123'];
`
	res := run(t, src, Options{})
	if res.Paths != 1 {
		t.Fatalf("paths = %d", res.Paths)
	}
	e := res.Envs[0]
	// $name resolves through the pre-structured array to the structured
	// filename (Fig. 6): s_name_upload_file . "." . s_ext_upload_file.
	name := sexpr.Format(res.Graph.ToSexpr(e.Get("name")))
	want := `(. s_name_upload_file (. "." s_ext_upload_file))`
	if name != want {
		t.Errorf("$name = %s, want %s", name, want)
	}
	// $rnd is an array_access over a symbolic array.
	rnd := sexpr.Format(res.Graph.ToSexpr(e.Get("rnd")))
	if !strings.Contains(rnd, "array_access") {
		t.Errorf("$rnd = %s, want array_access node", rnd)
	}
	if !strings.Contains(rnd, `"123"`) {
		t.Errorf("$rnd = %s, want index \"123\"", rnd)
	}
}

// Figure 6: all five pre-structured fields exist and tmp_name is tainted.
func TestFilesPreStructured(t *testing.T) {
	src := `<?php
$f = $_FILES['pic'];
$n = $f['name'];
$t = $f['type'];
$tmp = $f['tmp_name'];
$err = $f['error'];
$sz = $f['size'];
`
	res := run(t, src, Options{})
	e := res.Envs[0]
	g := res.Graph

	if got := sexpr.Format(g.ToSexpr(e.Get("t"))); got != "s_type_pic" {
		t.Errorf("type = %s", got)
	}
	if got := sexpr.Format(g.ToSexpr(e.Get("tmp"))); got != "s_tmp_pic" {
		t.Errorf("tmp_name = %s", got)
	}
	if got := sexpr.Format(g.ToSexpr(e.Get("err"))); got != "s_error_pic" {
		t.Errorf("error = %s", got)
	}
	if got := sexpr.Format(g.ToSexpr(e.Get("sz"))); got != "s_size_pic" {
		t.Errorf("size = %s", got)
	}
	// Taint: every field must reach the $_FILES object.
	for _, v := range []string{"n", "t", "tmp", "err", "sz"} {
		if !g.ReachesName(e.Get(v), "$_FILES") {
			t.Errorf("$%s should be tainted by $_FILES", v)
		}
	}
	// An unrelated value must not be tainted.
	if g.ReachesName(g.NewConcrete(sexpr.StrVal("x"), 1), "$_FILES") {
		t.Error("unrelated object reported tainted")
	}
}

// Listing 4: the sink is recorded with a destination whose s-expression
// matches the paper's se_dst and a reachable path.
func TestListing4SinkRecording(t *testing.T) {
	src := `<?php
$path_array = wp_upload_dir();
$pathAndName = $path_array['path'] . "/" . $_FILES['upload_file']['tmp_name'];
if (!move_uploaded_file($_FILES['upload_file']['tmp_name'], $pathAndName)) {
	return false;
}
return true;
`
	res := run(t, src, Options{})
	if len(res.Sinks) != 1 {
		t.Fatalf("sinks = %d, want 1", len(res.Sinks))
	}
	hit := res.Sinks[0]
	if hit.Sink != "move_uploaded_file" {
		t.Errorf("sink = %s", hit.Sink)
	}
	if hit.Line != 4 {
		t.Errorf("line = %d, want 4", hit.Line)
	}
	// Source is the tainted tmp_name.
	if got := sexpr.Format(res.Graph.ToSexpr(hit.Src)); got != "s_tmp_upload_file" {
		t.Errorf("src = %s", got)
	}
	if !res.Graph.ReachesName(hit.Src, "$_FILES") {
		t.Error("src should be tainted")
	}
	// Destination is s_wp_upload_path . "/" . s_tmp_upload_file.
	dst := sexpr.Format(res.Graph.ToSexpr(hit.Dst))
	if !strings.Contains(dst, "s_wp_upload_path") || !strings.Contains(dst, `"/"`) {
		t.Errorf("dst = %s", dst)
	}
	// The sink executes before the branch: its env has no reachability
	// constraint yet.
	if hit.Env.Cur != heapgraph.Null {
		t.Errorf("sink env cur = %v, want Null", hit.Env.Cur)
	}
	// Final paths: 2 (the if on the sink result).
	if res.Paths != 2 {
		t.Errorf("paths = %d, want 2", res.Paths)
	}
}

// A guard before the sink shows up in the sink env's reachability.
func TestSinkReachabilityConstraint(t *testing.T) {
	src := `<?php
$ext = pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION);
if ($ext == "jpg") {
	move_uploaded_file($_FILES['f']['tmp_name'], "/up/" . $_FILES['f']['name']);
}
`
	res := run(t, src, Options{})
	if len(res.Sinks) != 1 {
		t.Fatalf("sinks = %d", len(res.Sinks))
	}
	cur := sexpr.Format(res.Graph.ToSexpr(res.Sinks[0].Env.Cur))
	if !strings.Contains(cur, "==") || !strings.Contains(cur, `"jpg"`) || !strings.Contains(cur, "s_ext_f") {
		t.Errorf("sink reachability = %s", cur)
	}
}

// pathinfo + PATHINFO_EXTENSION returns the s_ext symbol of the
// pre-structured name (the WP Demo Buddy idiom).
func TestPathinfoExtension(t *testing.T) {
	src := `<?php
$ext = pathinfo($_FILES['up']['name'], PATHINFO_EXTENSION);
`
	res := run(t, src, Options{})
	got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("ext")))
	if got != "s_ext_up" {
		t.Errorf("ext = %s, want s_ext_up", got)
	}
}

// end(explode('.', $name)) resolves to the extension symbol.
func TestExplodeEndIdiom(t *testing.T) {
	src := `<?php
$parts = explode('.', $_FILES['doc']['name']);
$ext = end($parts);
`
	res := run(t, src, Options{})
	got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("ext")))
	if got != "s_ext_doc" {
		t.Errorf("ext = %s, want s_ext_doc", got)
	}
}

func TestUserFunctionInlining(t *testing.T) {
	src := `<?php
function addone($x) { return $x + 1; }
$y = addone(41);
`
	res := run(t, src, Options{})
	got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("y")))
	if got != "42" {
		t.Errorf("y = %s, want 42", got)
	}
}

func TestFunctionForkPropagatesToCaller(t *testing.T) {
	src := `<?php
function pick($c) {
	if ($c) { return 1; }
	return 2;
}
$r = pick($unknown);
$after = $r;
`
	res := run(t, src, Options{})
	if res.Paths != 2 {
		t.Fatalf("paths = %d, want 2 (callee fork must propagate)", res.Paths)
	}
	vals := map[string]bool{}
	for _, e := range res.Envs {
		vals[sexpr.Format(res.Graph.ToSexpr(e.Get("after")))] = true
	}
	if !vals["1"] || !vals["2"] {
		t.Errorf("after values = %v", vals)
	}
}

func TestRecursionCut(t *testing.T) {
	src := `<?php
function f($n) { return f($n - 1); }
$x = f(3);
`
	res := run(t, src, Options{})
	if res.Err != nil {
		t.Fatalf("err: %v", res.Err)
	}
	got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("x")))
	if !strings.Contains(got, "s_ret_f") {
		t.Errorf("x = %s, want recursion-cut symbol", got)
	}
}

func TestGlobalStatement(t *testing.T) {
	src := `<?php
$dir = "/uploads";
function target() {
	global $dir;
	return $dir . "/x.php";
}
$t = target();
`
	res := run(t, src, Options{})
	got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("t")))
	if got != `"/uploads/x.php"` {
		t.Errorf("t = %s", got)
	}
}

func TestConcreteConditionNoFork(t *testing.T) {
	src := `<?php
if (1 > 2) { $x = "dead"; } else { $x = "live"; }
if (true) { $y = 1; }
`
	res := run(t, src, Options{})
	if res.Paths != 1 {
		t.Fatalf("paths = %d, want 1 (concrete conditions must not fork)", res.Paths)
	}
	if got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("x"))); got != `"live"` {
		t.Errorf("x = %s", got)
	}
	if got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("y"))); got != "1" {
		t.Errorf("y = %s", got)
	}
}

func TestPathExplosionBudget(t *testing.T) {
	// 20 independent symbolic branches = 2^20 paths, over a small budget.
	var sb strings.Builder
	sb.WriteString("<?php\n")
	for i := 0; i < 20; i++ {
		sb.WriteString("if ($v" + string(rune('a'+i)) + ") { $x = 1; } else { $x = 2; }\n")
	}
	res := run(t, sb.String(), Options{MaxPaths: 1000})
	if res.Err == nil {
		t.Fatal("expected budget error")
	}
	if !errors.Is(res.Err, ErrBudgetExceeded) {
		t.Errorf("err = %v", res.Err)
	}
}

func TestWhileUnrolling(t *testing.T) {
	src := `<?php
$i = 0;
while ($i < $n) {
	$i = $i + 1;
}
`
	res := run(t, src, Options{LoopUnroll: 2})
	// Unroll 2 with symbolic condition: paths = 3 (exit at 0, 1, 2 iters).
	if res.Paths != 3 {
		t.Errorf("paths = %d, want 3", res.Paths)
	}
}

func TestForeachConcreteArray(t *testing.T) {
	src := `<?php
$exts = array('jpg', 'png');
$out = "";
foreach ($exts as $e) {
	$out = $out . $e;
}
`
	res := run(t, src, Options{LoopUnroll: 4})
	if res.Err != nil {
		t.Fatalf("err: %v", res.Err)
	}
	got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("out")))
	if got != `"jpgpng"` {
		t.Errorf("out = %s", got)
	}
}

func TestForeachKeyValue(t *testing.T) {
	src := `<?php
$m = array('a' => 1, 'b' => 2);
$keys = "";
foreach ($m as $k => $v) {
	$keys = $keys . $k;
}
`
	res := run(t, src, Options{LoopUnroll: 4})
	got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("keys")))
	if got != `"ab"` {
		t.Errorf("keys = %s", got)
	}
}

func TestBreakStopsLoop(t *testing.T) {
	src := `<?php
$x = 0;
while (true) {
	$x = $x + 1;
	break;
}
$done = $x;
`
	res := run(t, src, Options{LoopUnroll: 3})
	got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("done")))
	if got != "1" {
		t.Errorf("done = %s, want 1 (break after first iteration)", got)
	}
}

func TestSwitchDesugar(t *testing.T) {
	src := `<?php
switch ($mode) {
	case "a":
		$x = 1;
		break;
	case "b":
		$x = 2;
		break;
	default:
		$x = 3;
}
$y = $x;
`
	res := run(t, src, Options{})
	if res.Paths != 3 {
		t.Fatalf("paths = %d, want 3", res.Paths)
	}
	vals := map[string]bool{}
	for _, e := range res.Envs {
		vals[sexpr.Format(res.Graph.ToSexpr(e.Get("y")))] = true
	}
	for _, want := range []string{"1", "2", "3"} {
		if !vals[want] {
			t.Errorf("missing switch outcome %s (got %v)", want, vals)
		}
	}
}

func TestReturnTerminatesPath(t *testing.T) {
	src := `<?php
if ($c) {
	return;
}
$x = 5;
`
	res := run(t, src, Options{})
	if res.Paths != 2 {
		t.Fatalf("paths = %d", res.Paths)
	}
	var withX, withoutX int
	for _, e := range res.Envs {
		if e.Get("x") != heapgraph.Null {
			withX++
		} else {
			withoutX++
		}
	}
	if withX != 1 || withoutX != 1 {
		t.Errorf("withX=%d withoutX=%d", withX, withoutX)
	}
}

func TestExitTerminates(t *testing.T) {
	src := `<?php
if ($bad) {
	die("forbidden");
}
$x = 1;
`
	res := run(t, src, Options{})
	if res.Paths != 2 {
		t.Fatalf("paths = %d", res.Paths)
	}
}

func TestInterpStringConcat(t *testing.T) {
	src := `<?php
$p = "$dir/up.php";
`
	res := run(t, src, Options{})
	got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("p")))
	if got != `(. s_$dir "/up.php")` {
		t.Errorf("p = %s", got)
	}
}

func TestCompoundAssign(t *testing.T) {
	src := `<?php
$s = "a";
$s .= "b";
$n = 1;
$n += 2;
`
	res := run(t, src, Options{})
	if got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("s"))); got != `"ab"` {
		t.Errorf("s = %s", got)
	}
	if got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("n"))); got != "3" {
		t.Errorf("n = %s", got)
	}
}

func TestArrayCopyOnWrite(t *testing.T) {
	src := `<?php
$a = array('k' => 'v0');
if ($c) {
	$a['k'] = 'v1';
} else {
	$a['k'] = 'v2';
}
$r = $a['k'];
`
	res := run(t, src, Options{})
	if res.Paths != 2 {
		t.Fatalf("paths = %d", res.Paths)
	}
	vals := map[string]bool{}
	for _, e := range res.Envs {
		vals[sexpr.Format(res.Graph.ToSexpr(e.Get("r")))] = true
	}
	if !vals[`"v1"`] || !vals[`"v2"`] {
		t.Errorf("r values = %v (copy-on-write violated)", vals)
	}
}

func TestIncludeExecutes(t *testing.T) {
	main, _ := phpparser.Parse("main.php", `<?php include 'other.php'; $y = $fromOther;`)
	other, _ := phpparser.Parse("other.php", `<?php $fromOther = 7;`)
	in := New([]*phpast.File{main, other}, Options{})
	res := in.Run(context.Background(), &callgraph.Node{Kind: callgraph.FileNode, Name: "main.php", File: "main.php"})
	got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("y")))
	if got != "7" {
		t.Errorf("y = %s", got)
	}
}

func TestFunctionRootParamsSymbolic(t *testing.T) {
	src := `<?php
function handler($file) {
	move_uploaded_file($_FILES[$file]['tmp_name'], "/up/x");
}
`
	f, _ := phpparser.Parse("t.php", src)
	in := New([]*phpast.File{f}, Options{})
	g := callgraph.Build([]*phpast.File{f})
	fn := g.Func("handler")
	if fn == nil {
		t.Fatal("missing handler node")
	}
	res := in.Run(context.Background(), fn)
	if len(res.Sinks) != 1 {
		t.Fatalf("sinks = %d", len(res.Sinks))
	}
	// $_FILES[$file] with a symbolic key uses the shared '*' family.
	if got := sexpr.Format(res.Graph.ToSexpr(res.Sinks[0].Src)); got != "s_tmp_X" {
		t.Errorf("src = %s", got)
	}
}

func TestMethodCallInlining(t *testing.T) {
	src := `<?php
class Up {
	public function go($f) {
		return $f['name'];
	}
}
$u = new Up();
$n = $u->go($_FILES['z']);
`
	res := run(t, src, Options{})
	got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("n")))
	if !strings.Contains(got, "s_name_z") {
		t.Errorf("n = %s", got)
	}
}

func TestTernaryNoFork(t *testing.T) {
	src := `<?php
$x = $c ? "a" : "b";
`
	res := run(t, src, Options{})
	if res.Paths != 1 {
		t.Fatalf("paths = %d (ternary must not fork)", res.Paths)
	}
	got := sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get("x")))
	if !strings.Contains(got, "ite") {
		t.Errorf("x = %s", got)
	}
}

func TestObjectsPerPathSharing(t *testing.T) {
	// Many paths share objects: objects/path must be far below objects
	// created per branchless run.
	var sb strings.Builder
	sb.WriteString("<?php\n$base = $_FILES['f']['name'];\n")
	for i := 0; i < 10; i++ {
		v := string(rune('a' + i))
		sb.WriteString("if ($c" + v + ") { $x" + v + " = $base . \"" + v + "\"; }\n")
	}
	res := run(t, sb.String(), Options{})
	if res.Paths != 1024 {
		t.Fatalf("paths = %d, want 1024", res.Paths)
	}
	perPath := float64(res.Graph.NumObjects()) / float64(res.Paths)
	if perPath > 100 {
		t.Errorf("objects/path = %.1f, want < 100 (sharing broken)", perPath)
	}
}
