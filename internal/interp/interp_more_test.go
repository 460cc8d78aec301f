package interp

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/heapgraph"
	"repro/internal/phpast"
	"repro/internal/phpparser"
	"repro/internal/sexpr"
)

// val renders the binding of a variable on the first path.
func val(t *testing.T, res Result, name string) string {
	t.Helper()
	if len(res.Envs) == 0 {
		t.Fatal("no paths")
	}
	return sexpr.Format(res.Graph.ToSexpr(res.Envs[0].Get(name)))
}

func TestForLoopConcrete(t *testing.T) {
	src := `<?php
$s = "";
for ($i = 0; $i < 2; $i++) {
	$s = $s . "x";
}
$n = $i;
`
	res := run(t, src, Options{LoopUnroll: 4})
	if res.Paths != 1 {
		t.Fatalf("paths = %d (concrete loop must not fork)", res.Paths)
	}
	if got := val(t, res, "s"); got != `"xx"` {
		t.Errorf("s = %s", got)
	}
	if got := val(t, res, "n"); got != "2" {
		t.Errorf("n = %s", got)
	}
}

func TestDoWhileRunsBodyFirst(t *testing.T) {
	src := `<?php
$x = 0;
do {
	$x = $x + 1;
} while (false);
`
	res := run(t, src, Options{})
	if got := val(t, res, "x"); got != "1" {
		t.Errorf("x = %s", got)
	}
}

func TestContinueSkipsRest(t *testing.T) {
	src := `<?php
$hits = 0;
$skipped = 0;
for ($i = 0; $i < 2; $i++) {
	$hits = $hits + 1;
	continue;
	$skipped = $skipped + 1;
}
`
	res := run(t, src, Options{LoopUnroll: 4})
	if got := val(t, res, "hits"); got != "2" {
		t.Errorf("hits = %s", got)
	}
	if got := val(t, res, "skipped"); got != "0" {
		t.Errorf("skipped = %s", got)
	}
}

func TestTryCatchFinallyPaths(t *testing.T) {
	src := `<?php
try {
	$x = "body";
} catch (Exception $e) {
	$x = "caught";
} finally {
	$done = 1;
}
`
	res := run(t, src, Options{})
	// Two paths: body and catch, both through finally.
	if res.Paths != 2 {
		t.Fatalf("paths = %d", res.Paths)
	}
	for _, e := range res.Envs {
		if got := sexpr.Format(res.Graph.ToSexpr(e.Get("done"))); got != "1" {
			t.Errorf("finally missed on a path: done = %s", got)
		}
	}
}

func TestThrowTerminates(t *testing.T) {
	src := `<?php
if ($bad) {
	throw new Exception("nope");
}
$x = 1;
`
	res := run(t, src, Options{})
	var terminated int
	for _, e := range res.Envs {
		if e.Terminated {
			terminated++
		}
	}
	if terminated != 1 {
		t.Errorf("terminated paths = %d, want 1", terminated)
	}
}

func TestUnsetRemovesBinding(t *testing.T) {
	src := `<?php
$x = 1;
unset($x);
`
	res := run(t, src, Options{})
	if res.Envs[0].Has("x") {
		t.Error("unset should remove the binding")
	}
}

func TestStaticVarsInit(t *testing.T) {
	src := `<?php
static $count = 5, $label;
$c = $count;
`
	res := run(t, src, Options{})
	if got := val(t, res, "c"); got != "5" {
		t.Errorf("c = %s", got)
	}
	if res.Envs[0].Get("label") == heapgraph.Null {
		t.Error("uninitialized static should get a symbol")
	}
}

func TestIssetAndEmptySymbolic(t *testing.T) {
	src := `<?php
$a = isset($_FILES['f']);
$b = empty($maybe);
`
	res := run(t, src, Options{})
	if got := val(t, res, "a"); !strings.Contains(got, "isset") {
		t.Errorf("a = %s", got)
	}
	if got := val(t, res, "b"); !strings.Contains(got, "empty") {
		t.Errorf("b = %s", got)
	}
}

func TestListDestructuring(t *testing.T) {
	src := `<?php
list($first, $second) = array("a", "b");
`
	res := run(t, src, Options{})
	if got := val(t, res, "first"); got != `"a"` {
		t.Errorf("first = %s", got)
	}
	if got := val(t, res, "second"); got != `"b"` {
		t.Errorf("second = %s", got)
	}
}

func TestIncDecSemantics(t *testing.T) {
	src := `<?php
$i = 5;
$post = $i++;
$j = 5;
$pre = ++$j;
`
	res := run(t, src, Options{})
	if got := val(t, res, "post"); got != "5" {
		t.Errorf("post = %s (post-increment returns old)", got)
	}
	if got := val(t, res, "i"); got != "6" {
		t.Errorf("i = %s", got)
	}
	if got := val(t, res, "pre"); got != "6" {
		t.Errorf("pre = %s (pre-increment returns new)", got)
	}
}

func TestCastsConcrete(t *testing.T) {
	src := `<?php
$a = (int)"42x";
$b = (string)7;
$c = (bool)"";
`
	res := run(t, src, Options{})
	// (int)"42x" is not concretely foldable (string isn't numeric per our
	// conservative model) — it becomes a cast node; (string)7 folds.
	if got := val(t, res, "b"); got != `"7"` {
		t.Errorf("b = %s", got)
	}
	if got := val(t, res, "c"); got != "false" {
		t.Errorf("c = %s", got)
	}
	if got := val(t, res, "a"); got == "42" {
		t.Errorf("a = %s (non-numeric cast should stay symbolic)", got)
	}
}

func TestTernaryShortForm(t *testing.T) {
	src := `<?php
$x = $maybe ?: "fallback";
`
	res := run(t, src, Options{})
	got := val(t, res, "x")
	if !strings.Contains(got, "ite") || !strings.Contains(got, `"fallback"`) {
		t.Errorf("x = %s", got)
	}
}

func TestCoalesceConcrete(t *testing.T) {
	src := `<?php
$a = null ?? "right";
$b = "left" ?? "unused";
`
	res := run(t, src, Options{})
	if got := val(t, res, "a"); got != `"right"` {
		t.Errorf("a = %s", got)
	}
	if got := val(t, res, "b"); got != `"left"` {
		t.Errorf("b = %s", got)
	}
}

func TestCallUserFuncIndirection(t *testing.T) {
	src := `<?php
function target($v) { return $v . "!"; }
$r = call_user_func('target', "hi");
`
	res := run(t, src, Options{})
	if got := val(t, res, "r"); got != `"hi!"` {
		t.Errorf("r = %s", got)
	}
}

func TestVariableFunctionOpaque(t *testing.T) {
	src := `<?php
$fn = $_POST['callback'];
$r = $fn("arg");
`
	res := run(t, src, Options{})
	got := val(t, res, "r")
	if !strings.Contains(got, "call_dynamic") {
		t.Errorf("r = %s", got)
	}
}

func TestConstructorRuns(t *testing.T) {
	src := `<?php
class Box {
	public function __construct($v) {
		$this->value = $v;
	}
}
$b = new Box(9);
$out = $b->value;
`
	res := run(t, src, Options{})
	if got := val(t, res, "out"); got != "9" {
		t.Errorf("out = %s", got)
	}
}

func TestPropertyReadWrite(t *testing.T) {
	src := `<?php
$o = new stdClass();
$o->name = "p";
$r = $o->name;
`
	res := run(t, src, Options{})
	if got := val(t, res, "r"); got != `"p"` {
		t.Errorf("r = %s", got)
	}
}

func TestStaticCallResolution(t *testing.T) {
	src := `<?php
class Util {
	public static function double($x) { return $x * 2; }
}
$r = Util::double(21);
`
	res := run(t, src, Options{})
	if got := val(t, res, "r"); got != "42" {
		t.Errorf("r = %s", got)
	}
}

func TestBuiltinSprintfStructured(t *testing.T) {
	src := `<?php
$p = sprintf("%s/%s.bak", $dir, $_FILES['f']['name']);
`
	res := run(t, src, Options{})
	got := val(t, res, "p")
	if !strings.Contains(got, "s_name_f") || !strings.Contains(got, `".bak"`) {
		t.Errorf("p = %s", got)
	}
}

func TestBuiltinImplode(t *testing.T) {
	src := `<?php
$parts = array("a", "b", "c");
$joined = implode("-", $parts);
`
	res := run(t, src, Options{})
	got := val(t, res, "joined")
	// Structured concat chain over the elements (constant folding merges).
	if !strings.Contains(got, "a") || !strings.Contains(got, "-") {
		t.Errorf("joined = %s", got)
	}
}

func TestBuiltinCountConcrete(t *testing.T) {
	src := `<?php
$n = count(array(1, 2, 3));
`
	res := run(t, src, Options{})
	if got := val(t, res, "n"); got != "3" {
		t.Errorf("n = %s", got)
	}
}

func TestBuiltinArrayMerge(t *testing.T) {
	src := `<?php
$m = array_merge(array('a' => 1), array('b' => 2));
$x = $m['b'];
`
	res := run(t, src, Options{})
	if got := val(t, res, "x"); got != "2" {
		t.Errorf("x = %s", got)
	}
}

func TestBuiltinDirnameBasenameConcrete(t *testing.T) {
	src := `<?php
$d = dirname("/var/www/up/x.php");
$b = basename("/var/www/up/x.php");
`
	res := run(t, src, Options{})
	if got := val(t, res, "d"); got != `"/var/www/up"` {
		t.Errorf("d = %s", got)
	}
	if got := val(t, res, "b"); got != `"x.php"` {
		t.Errorf("b = %s", got)
	}
}

func TestPathinfoArrayForm(t *testing.T) {
	src := `<?php
$info = pathinfo($_FILES['z']['name']);
$base = $info['basename'];
$ext = $info['extension'];
`
	res := run(t, src, Options{})
	if got := val(t, res, "ext"); got != "s_ext_z" {
		t.Errorf("ext = %s", got)
	}
	if got := val(t, res, "base"); !strings.Contains(got, "s_name_z") {
		t.Errorf("base = %s", got)
	}
}

func TestPathinfoConcrete(t *testing.T) {
	src := `<?php
$e = pathinfo("archive.tar.gz", PATHINFO_EXTENSION);
$f = pathinfo("archive.tar.gz", PATHINFO_FILENAME);
`
	res := run(t, src, Options{})
	if got := val(t, res, "e"); got != `"gz"` {
		t.Errorf("e = %s", got)
	}
	if got := val(t, res, "f"); got != `"archive.tar"` {
		t.Errorf("f = %s", got)
	}
}

func TestSuperglobalsShared(t *testing.T) {
	src := `<?php
$a = $_POST['x'];
$b = $_GET['y'];
$c = $_SERVER['REQUEST_URI'];
`
	res := run(t, src, Options{})
	for _, v := range []string{"a", "b", "c"} {
		if res.Envs[0].Get(v) == heapgraph.Null {
			t.Errorf("$%s unbound", v)
		}
	}
}

func TestEchoPrintExitExpr(t *testing.T) {
	src := `<?php
echo "one", 2;
$p = print "three";
`
	res := run(t, src, Options{})
	if got := val(t, res, "p"); got != "1" {
		t.Errorf("p = %s", got)
	}
}

func TestNestedArrayWrite(t *testing.T) {
	src := `<?php
$cfg = array();
$cfg['upload']['dir'] = "/up";
$d = $cfg['upload']['dir'];
`
	res := run(t, src, Options{})
	if got := val(t, res, "d"); got != `"/up"` {
		t.Errorf("d = %s", got)
	}
}

func TestArrayPushStatement(t *testing.T) {
	src := `<?php
$xs = array();
$xs[] = "first";
$xs[] = "second";
$a = $xs[0];
$b = $xs[1];
`
	res := run(t, src, Options{})
	if got := val(t, res, "a"); got != `"first"` {
		t.Errorf("a = %s", got)
	}
	if got := val(t, res, "b"); got != `"second"` {
		t.Errorf("b = %s", got)
	}
}

func TestInterpolatedComplexExpr(t *testing.T) {
	src := `<?php
$p = "pre {$_FILES['k']['name']} post";
`
	res := run(t, src, Options{})
	got := val(t, res, "p")
	if !strings.Contains(got, "s_name_k") || !strings.Contains(got, `"pre "`) {
		t.Errorf("p = %s", got)
	}
}

func TestFunctionRootViaGraph(t *testing.T) {
	// Run on a FuncNode built by the real callgraph.
	src := `<?php
function entry($k) {
	$n = $_FILES[$k]['name'];
	file_put_contents("/srv/" . $n, $_FILES[$k]['tmp_name']);
}
`
	f, errs := phpparser.Parse("t.php", src)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	g := callgraph.Build([]*phpast.File{f})
	node := g.Func("entry")
	res := New([]*phpast.File{f}, Options{}).Run(context.Background(), node)
	if len(res.Sinks) != 1 || res.Sinks[0].Sink != "file_put_contents" {
		t.Fatalf("sinks = %+v", res.Sinks)
	}
	// file_put_contents: dst is arg0.
	dst := sexpr.Format(res.Graph.ToSexpr(res.Sinks[0].Dst))
	if !strings.Contains(dst, `"/srv/"`) {
		t.Errorf("dst = %s", dst)
	}
}

func TestAlternativeSyntaxExecution(t *testing.T) {
	src := `<?php if ($c): $x = 1; else: $x = 2; endif; $y = $x;`
	res := run(t, src, Options{})
	if res.Paths != 2 {
		t.Fatalf("paths = %d", res.Paths)
	}
}

func TestGlobalsWriteBack(t *testing.T) {
	src := `<?php
$counter = 1;
function bump() {
	global $counter;
	$counter = $counter + 1;
}
bump();
$r = $counter;
`
	res := run(t, src, Options{})
	if got := val(t, res, "r"); got != "2" {
		t.Errorf("r = %s (global write-back)", got)
	}
}

func TestStrReplaceBuiltinNode(t *testing.T) {
	src := `<?php
$clean = str_replace("..", "", $_FILES['f']['name']);
`
	res := run(t, src, Options{})
	got := val(t, res, "clean")
	if !strings.Contains(got, "str_replace") {
		t.Errorf("clean = %s", got)
	}
}

func TestConstantsFolding(t *testing.T) {
	src := `<?php
$sep = DIRECTORY_SEPARATOR;
$eol = PHP_EOL;
$err = UPLOAD_ERR_OK;
`
	res := run(t, src, Options{})
	if got := val(t, res, "sep"); got != `"/"` {
		t.Errorf("sep = %s", got)
	}
	if got := val(t, res, "err"); got != "0" {
		t.Errorf("err = %s", got)
	}
}

// PHP multi-file form: $_FILES['docs']['name'][0] keeps the structured
// name and taint of a per-index upload family.
func TestMultiFileFormStructure(t *testing.T) {
	src := `<?php
$n0 = $_FILES['docs']['name'][0];
$t0 = $_FILES['docs']['tmp_name'][0];
$n1 = $_FILES['docs']['name'][1];
`
	res := run(t, src, Options{})
	n0 := val(t, res, "n0")
	if !strings.Contains(n0, "s_name_docs_0") || !strings.Contains(n0, "s_ext_docs_0") {
		t.Errorf("n0 = %s", n0)
	}
	if got := val(t, res, "t0"); got != "s_tmp_docs_0" {
		t.Errorf("t0 = %s", got)
	}
	n1 := val(t, res, "n1")
	if n1 == n0 {
		t.Error("distinct indices must give distinct families")
	}
	if !res.Graph.ReachesName(res.Envs[0].Get("t0"), "$_FILES") {
		t.Error("multi-file tmp_name must stay tainted")
	}
}

// Property: the path count of a sequence of independent symbolic branches
// is the product of their arities — the law the corpus's Table III path
// factorizations rely on.
func TestPathCountProductProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		// Derive 1-4 factors in [2,5].
		var factors []int
		for _, b := range raw {
			if len(factors) == 4 {
				break
			}
			factors = append(factors, int(b%4)+2)
		}
		if len(factors) == 0 {
			factors = []int{2}
		}
		var sb strings.Builder
		sb.WriteString("<?php\n")
		want := 1
		for i, f := range factors {
			want *= f
			v := "v" + string(rune('a'+i))
			if f == 2 {
				sb.WriteString("if ($" + v + ") { $x = 1; } else { $x = 0; }\n")
				continue
			}
			sb.WriteString("switch ($" + v + ") {\n")
			for c := 0; c < f-1; c++ {
				sb.WriteString("case " + string(rune('0'+c)) + ":\n$y = " + string(rune('0'+c)) + ";\nbreak;\n")
			}
			sb.WriteString("default:\n$y = -1;\n}\n")
		}
		res := run(t, sb.String(), Options{})
		return res.Paths == want
	}
	if err := quickCheck(f, 60); err != nil {
		t.Error(err)
	}
}

// quickCheck is a tiny wrapper so the property above can use a bounded
// round count without importing testing/quick's default sizing.
func quickCheck(f func([]uint8) bool, rounds int) error {
	seed := []([]uint8){
		{}, {0}, {1}, {2}, {3}, {0, 1}, {1, 2}, {3, 3}, {0, 0, 0},
		{1, 3, 2}, {2, 2, 2, 2}, {3, 2, 1, 0}, {1}, {2, 3},
	}
	for i := 0; i < rounds && i < len(seed); i++ {
		if !f(seed[i]) {
			return fmt.Errorf("property failed for %v", seed[i])
		}
	}
	return nil
}
