package phpparser

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/phpast"
)

// mustParse parses src and fails the test on any error.
func mustParse(t *testing.T, src string) *phpast.File {
	t.Helper()
	f, errs := Parse("test.php", src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return f
}

// firstStmt returns the first statement of a parsed file.
func firstStmt(t *testing.T, src string) phpast.Stmt {
	t.Helper()
	f := mustParse(t, src)
	if len(f.Stmts) == 0 {
		t.Fatal("no statements")
	}
	return f.Stmts[0]
}

// exprOf extracts the expression from the first ExprStmt.
func exprOf(t *testing.T, src string) phpast.Expr {
	t.Helper()
	s := firstStmt(t, src)
	es, ok := s.(*phpast.ExprStmt)
	if !ok {
		t.Fatalf("first stmt is %T, want ExprStmt", s)
	}
	return es.X
}

func TestParseAssignment(t *testing.T) {
	e := exprOf(t, "<?php $a = 1;")
	a, ok := e.(*phpast.Assign)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if v, ok := a.Target.(*phpast.Var); !ok || v.Name != "a" {
		t.Errorf("target = %+v", a.Target)
	}
	if i, ok := a.Value.(*phpast.IntLit); !ok || i.Value != 1 {
		t.Errorf("value = %+v", a.Value)
	}
}

func TestParseCompoundAssign(t *testing.T) {
	tests := []struct {
		src string
		op  string
	}{
		{"<?php $a += 1;", "+"},
		{"<?php $a .= 'x';", "."},
		{"<?php $a **= 2;", "**"},
		{"<?php $a ??= 2;", "??"},
	}
	for _, tt := range tests {
		e := exprOf(t, tt.src)
		a, ok := e.(*phpast.Assign)
		if !ok || a.Op != tt.op {
			t.Errorf("%s: got %+v", tt.src, e)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// 1 + 2 * 3 must parse as 1 + (2 * 3).
	e := exprOf(t, "<?php $x = 1 + 2 * 3;")
	a := e.(*phpast.Assign)
	b, ok := a.Value.(*phpast.Binary)
	if !ok || b.Op != "+" {
		t.Fatalf("value = %+v", a.Value)
	}
	r, ok := b.R.(*phpast.Binary)
	if !ok || r.Op != "*" {
		t.Errorf("right = %+v", b.R)
	}
}

func TestParseConcatPrecedence(t *testing.T) {
	// $a . "/" . $b is left-associative: (($a . "/") . $b).
	e := exprOf(t, `<?php $x = $a . "/" . $b;`)
	a := e.(*phpast.Assign)
	outer, ok := a.Value.(*phpast.Binary)
	if !ok || outer.Op != "." {
		t.Fatalf("value = %+v", a.Value)
	}
	inner, ok := outer.L.(*phpast.Binary)
	if !ok || inner.Op != "." {
		t.Errorf("left = %+v", outer.L)
	}
	if v, ok := outer.R.(*phpast.Var); !ok || v.Name != "b" {
		t.Errorf("right = %+v", outer.R)
	}
}

func TestParseComparisonVsBoolean(t *testing.T) {
	// $a > 5 && $b < 3 → (&& (> $a 5) (< $b 3))
	e := exprOf(t, "<?php $x = $a > 5 && $b < 3;")
	a := e.(*phpast.Assign)
	b := a.Value.(*phpast.Binary)
	if b.Op != "&&" {
		t.Fatalf("op = %s", b.Op)
	}
	if l := b.L.(*phpast.Binary); l.Op != ">" {
		t.Errorf("left op = %s", l.Op)
	}
	if r := b.R.(*phpast.Binary); r.Op != "<" {
		t.Errorf("right op = %s", r.Op)
	}
}

func TestParsePowRightAssoc(t *testing.T) {
	e := exprOf(t, "<?php $x = 2 ** 3 ** 2;")
	a := e.(*phpast.Assign)
	b := a.Value.(*phpast.Binary)
	if b.Op != "**" {
		t.Fatalf("op = %s", b.Op)
	}
	if _, ok := b.L.(*phpast.IntLit); !ok {
		t.Errorf("left should be literal, got %T", b.L)
	}
	if r, ok := b.R.(*phpast.Binary); !ok || r.Op != "**" {
		t.Errorf("right = %+v", b.R)
	}
}

func TestParseWordOpsLowest(t *testing.T) {
	// $x = 1 and $y = 2 → ($x = 1) and ($y = 2): and binds below assignment.
	e := exprOf(t, "<?php $x = 1 and $y = 2;")
	b, ok := e.(*phpast.Binary)
	if !ok || b.Op != "&&" {
		t.Fatalf("got %T %+v", e, e)
	}
	if _, ok := b.L.(*phpast.Assign); !ok {
		t.Errorf("left = %T", b.L)
	}
	if _, ok := b.R.(*phpast.Assign); !ok {
		t.Errorf("right = %T", b.R)
	}
}

func TestParseArrayAccess(t *testing.T) {
	e := exprOf(t, `<?php $myfile = $_FILES['upload_file'];`)
	a := e.(*phpast.Assign)
	dim, ok := a.Value.(*phpast.ArrayDim)
	if !ok {
		t.Fatalf("value = %T", a.Value)
	}
	if v, ok := dim.Arr.(*phpast.Var); !ok || v.Name != "_FILES" {
		t.Errorf("arr = %+v", dim.Arr)
	}
	if s, ok := dim.Index.(*phpast.StringLit); !ok || s.Value != "upload_file" {
		t.Errorf("index = %+v", dim.Index)
	}
}

func TestParseNestedArrayAccess(t *testing.T) {
	e := exprOf(t, `<?php $x = $_FILES[$file]['tmp_name'];`)
	a := e.(*phpast.Assign)
	outer := a.Value.(*phpast.ArrayDim)
	inner, ok := outer.Arr.(*phpast.ArrayDim)
	if !ok {
		t.Fatalf("outer.Arr = %T", outer.Arr)
	}
	if v, ok := inner.Index.(*phpast.Var); !ok || v.Name != "file" {
		t.Errorf("inner index = %+v", inner.Index)
	}
}

func TestParseArrayPush(t *testing.T) {
	e := exprOf(t, "<?php $a[] = 1;")
	a := e.(*phpast.Assign)
	dim := a.Target.(*phpast.ArrayDim)
	if dim.Index != nil {
		t.Errorf("push index = %+v, want nil", dim.Index)
	}
}

func TestParseFunctionCall(t *testing.T) {
	e := exprOf(t, `<?php move_uploaded_file($src, $dst);`)
	c, ok := e.(*phpast.Call)
	if !ok {
		t.Fatalf("got %T", e)
	}
	name, ok := phpast.CalleeName(c)
	if !ok || name != "move_uploaded_file" {
		t.Errorf("callee = %q", name)
	}
	if len(c.Args) != 2 {
		t.Errorf("args = %d", len(c.Args))
	}
}

func TestParseCalleeNameCaseInsensitive(t *testing.T) {
	e := exprOf(t, `<?php Move_Uploaded_File($a, $b);`)
	c := e.(*phpast.Call)
	name, _ := phpast.CalleeName(c)
	if name != "move_uploaded_file" {
		t.Errorf("callee = %q", name)
	}
}

func TestParseNestedCall(t *testing.T) {
	e := exprOf(t, `<?php handle_uploader("f", getFileName("f"));`)
	c := e.(*phpast.Call)
	if len(c.Args) != 2 {
		t.Fatalf("args = %d", len(c.Args))
	}
	if _, ok := c.Args[1].(*phpast.Call); !ok {
		t.Errorf("arg[1] = %T", c.Args[1])
	}
}

func TestParseIfElse(t *testing.T) {
	src := `<?php
if ($a > 10) { $b = 1; } else { $b = 2; }`
	s := firstStmt(t, src)
	iff, ok := s.(*phpast.If)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if iff.Else == nil {
		t.Error("missing else")
	}
	if len(iff.Then.Stmts) != 1 {
		t.Errorf("then has %d stmts", len(iff.Then.Stmts))
	}
}

func TestParseElseifChain(t *testing.T) {
	src := `<?php
if ($a) { $x = 1; }
elseif ($b) { $x = 2; }
else if ($c) { $x = 3; }
else { $x = 4; }`
	s := firstStmt(t, src)
	iff := s.(*phpast.If)
	second, ok := iff.Else.(*phpast.If)
	if !ok {
		t.Fatalf("else = %T", iff.Else)
	}
	third, ok := second.Else.(*phpast.If)
	if !ok {
		t.Fatalf("second else = %T", second.Else)
	}
	if third.Else == nil {
		t.Error("final else missing")
	}
}

func TestParseAlternativeSyntax(t *testing.T) {
	src := `<?php if ($a): $x = 1; elseif ($b): $x = 2; else: $x = 3; endif;`
	s := firstStmt(t, src)
	iff := s.(*phpast.If)
	if len(iff.Then.Stmts) != 1 {
		t.Errorf("then stmts = %d", len(iff.Then.Stmts))
	}
	nested, ok := iff.Else.(*phpast.If)
	if !ok {
		t.Fatalf("else = %T", iff.Else)
	}
	if nested.Else == nil {
		t.Error("nested else missing")
	}
}

func TestParseWhileForForeach(t *testing.T) {
	src := `<?php
while ($i < 10) { $i++; }
for ($i = 0; $i < 5; $i++) { echo $i; }
foreach ($arr as $k => $v) { echo $v; }
foreach ($arr as $v) { echo $v; }
do { $i--; } while ($i > 0);`
	f := mustParse(t, src)
	if len(f.Stmts) != 5 {
		t.Fatalf("stmts = %d", len(f.Stmts))
	}
	if _, ok := f.Stmts[0].(*phpast.While); !ok {
		t.Errorf("0: %T", f.Stmts[0])
	}
	if _, ok := f.Stmts[1].(*phpast.For); !ok {
		t.Errorf("1: %T", f.Stmts[1])
	}
	fe, ok := f.Stmts[2].(*phpast.Foreach)
	if !ok || fe.Key == nil {
		t.Errorf("2: %T key=%v", f.Stmts[2], fe.Key)
	}
	fe2 := f.Stmts[3].(*phpast.Foreach)
	if fe2.Key != nil {
		t.Error("3: unexpected key")
	}
	if _, ok := f.Stmts[4].(*phpast.DoWhile); !ok {
		t.Errorf("4: %T", f.Stmts[4])
	}
}

func TestParseSwitch(t *testing.T) {
	src := `<?php
switch ($x) {
	case 1:
	case 2:
		echo "low"; break;
	default:
		echo "high";
}`
	s := firstStmt(t, src)
	sw := s.(*phpast.Switch)
	if len(sw.Cases) != 3 {
		t.Fatalf("cases = %d", len(sw.Cases))
	}
	if sw.Cases[2].Cond != nil {
		t.Error("default should have nil cond")
	}
}

func TestParseFuncDecl(t *testing.T) {
	src := `<?php
function handle_uploader($file, $savePath) {
	return true;
}`
	s := firstStmt(t, src)
	fd, ok := s.(*phpast.FuncDecl)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if fd.Name != "handle_uploader" || len(fd.Params) != 2 {
		t.Errorf("decl = %+v", fd)
	}
	if fd.Params[0].Name != "file" || fd.Params[1].Name != "savePath" {
		t.Errorf("params = %+v", fd.Params)
	}
	if fd.EndLine != 4 {
		t.Errorf("EndLine = %d, want 4", fd.EndLine)
	}
}

func TestParseFuncDefaultsAndHints(t *testing.T) {
	src := `<?php function f(array $a, string $b = "x", &$c, ?int $d = null) {}`
	fd := firstStmt(t, src).(*phpast.FuncDecl)
	if len(fd.Params) != 4 {
		t.Fatalf("params = %d", len(fd.Params))
	}
	if fd.Params[0].Type != "array" {
		t.Errorf("p0 type = %q", fd.Params[0].Type)
	}
	if fd.Params[1].Default == nil {
		t.Error("p1 default missing")
	}
	if !fd.Params[2].ByRef {
		t.Error("p2 should be by-ref")
	}
	if fd.Params[3].Default == nil {
		t.Error("p3 default missing")
	}
}

func TestParseClass(t *testing.T) {
	src := `<?php
class Uploader extends Base implements A, B {
	const MAX = 10;
	public $dir = "/tmp";
	private static $count;
	public function upload($f) { return $f; }
	protected static function helper() {}
}`
	s := firstStmt(t, src)
	cd, ok := s.(*phpast.ClassDecl)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if cd.Name != "Uploader" || cd.Parent != "Base" {
		t.Errorf("class = %+v", cd)
	}
	if len(cd.Methods) != 2 {
		t.Errorf("methods = %d", len(cd.Methods))
	}
	if len(cd.Props) != 2 {
		t.Errorf("props = %d", len(cd.Props))
	}
	if _, ok := cd.Consts["MAX"]; !ok {
		t.Error("missing const MAX")
	}
	if cd.Methods[1].Static != true {
		t.Error("helper should be static")
	}
}

func TestParseMethodCallChain(t *testing.T) {
	e := exprOf(t, `<?php $wpdb->prepare("q")->execute();`)
	mc, ok := e.(*phpast.MethodCall)
	if !ok || mc.Method != "execute" {
		t.Fatalf("got %+v", e)
	}
	inner, ok := mc.Obj.(*phpast.MethodCall)
	if !ok || inner.Method != "prepare" {
		t.Errorf("obj = %+v", mc.Obj)
	}
}

func TestParseStaticAndConsts(t *testing.T) {
	e := exprOf(t, `<?php $x = Foo::bar($a) + Foo::BAZ;`)
	a := e.(*phpast.Assign)
	b := a.Value.(*phpast.Binary)
	if sc, ok := b.L.(*phpast.StaticCall); !ok || sc.Class != "Foo" || sc.Method != "bar" {
		t.Errorf("left = %+v", b.L)
	}
	if cc, ok := b.R.(*phpast.ClassConstFetch); !ok || cc.Const != "BAZ" {
		t.Errorf("right = %+v", b.R)
	}
}

func TestParseConstFetch(t *testing.T) {
	e := exprOf(t, `<?php $ext = pathinfo($name, PATHINFO_EXTENSION);`)
	a := e.(*phpast.Assign)
	c := a.Value.(*phpast.Call)
	if cf, ok := c.Args[1].(*phpast.ConstFetch); !ok || cf.Name != "PATHINFO_EXTENSION" {
		t.Errorf("arg1 = %+v", c.Args[1])
	}
}

func TestParseTernary(t *testing.T) {
	e := exprOf(t, "<?php $x = $a ? 1 : 2;")
	a := e.(*phpast.Assign)
	tn, ok := a.Value.(*phpast.Ternary)
	if !ok || tn.Then == nil {
		t.Fatalf("value = %+v", a.Value)
	}
	// Short form.
	e2 := exprOf(t, "<?php $x = $a ?: 2;")
	tn2 := e2.(*phpast.Assign).Value.(*phpast.Ternary)
	if tn2.Then != nil {
		t.Error("short ternary should have nil Then")
	}
}

func TestParseInterpolatedString(t *testing.T) {
	e := exprOf(t, `<?php $p = "$dir/$name.php";`)
	a := e.(*phpast.Assign)
	is, ok := a.Value.(*phpast.InterpString)
	if !ok {
		t.Fatalf("value = %T", a.Value)
	}
	// $dir, "/", $name, ".php"
	if len(is.Parts) != 4 {
		t.Fatalf("parts = %d: %+v", len(is.Parts), is.Parts)
	}
	if v, ok := is.Parts[0].(*phpast.Var); !ok || v.Name != "dir" {
		t.Errorf("part0 = %+v", is.Parts[0])
	}
	if s, ok := is.Parts[3].(*phpast.StringLit); !ok || s.Value != ".php" {
		t.Errorf("part3 = %+v", is.Parts[3])
	}
}

func TestParseComplexInterp(t *testing.T) {
	e := exprOf(t, `<?php $p = "x{$f['name']}y";`)
	a := e.(*phpast.Assign)
	is := a.Value.(*phpast.InterpString)
	if len(is.Parts) != 3 {
		t.Fatalf("parts = %d", len(is.Parts))
	}
	dim, ok := is.Parts[1].(*phpast.ArrayDim)
	if !ok {
		t.Fatalf("part1 = %T", is.Parts[1])
	}
	if s, ok := dim.Index.(*phpast.StringLit); !ok || s.Value != "name" {
		t.Errorf("index = %+v", dim.Index)
	}
}

func TestParseCasts(t *testing.T) {
	e := exprOf(t, "<?php $x = (int)$y + (string)$z;")
	a := e.(*phpast.Assign)
	b := a.Value.(*phpast.Binary)
	if c, ok := b.L.(*phpast.Cast); !ok || c.Type != "int" {
		t.Errorf("left = %+v", b.L)
	}
	if c, ok := b.R.(*phpast.Cast); !ok || c.Type != "string" {
		t.Errorf("right = %+v", b.R)
	}
}

func TestParseErrorSuppressAndNot(t *testing.T) {
	e := exprOf(t, "<?php $ok = !@move_uploaded_file($a, $b);")
	a := e.(*phpast.Assign)
	n, ok := a.Value.(*phpast.Unary)
	if !ok || n.Op != "!" {
		t.Fatalf("value = %+v", a.Value)
	}
	if _, ok := n.X.(*phpast.ErrorSuppress); !ok {
		t.Errorf("inner = %T", n.X)
	}
}

func TestParseIncludeRequire(t *testing.T) {
	src := `<?php
include 'a.php';
require_once("lib/b.php");`
	f := mustParse(t, src)
	i0 := f.Stmts[0].(*phpast.ExprStmt).X.(*phpast.Include)
	if i0.Kind != "include" {
		t.Errorf("kind = %s", i0.Kind)
	}
	i1 := f.Stmts[1].(*phpast.ExprStmt).X.(*phpast.Include)
	if i1.Kind != "require_once" {
		t.Errorf("kind = %s", i1.Kind)
	}
	if s, ok := i1.X.(*phpast.StringLit); !ok || s.Value != "lib/b.php" {
		t.Errorf("path = %+v", i1.X)
	}
}

func TestParseIssetEmptyUnset(t *testing.T) {
	src := `<?php
if (isset($_FILES['f'], $_POST['x']) && !empty($_FILES['f']['name'])) {
	unset($_FILES['f']);
}`
	f := mustParse(t, src)
	iff := f.Stmts[0].(*phpast.If)
	b := iff.Cond.(*phpast.Binary)
	is, ok := b.L.(*phpast.Isset)
	if !ok || len(is.Vars) != 2 {
		t.Errorf("left = %+v", b.L)
	}
	if _, ok := iff.Then.Stmts[0].(*phpast.Unset); !ok {
		t.Errorf("then = %T", iff.Then.Stmts[0])
	}
}

func TestParseArrayLiterals(t *testing.T) {
	e := exprOf(t, `<?php $a = array('jpg', 'png', 'k' => 'v');`)
	lit := e.(*phpast.Assign).Value.(*phpast.ArrayLit)
	if len(lit.Items) != 3 {
		t.Fatalf("items = %d", len(lit.Items))
	}
	if lit.Items[2].Key == nil {
		t.Error("item2 should have key")
	}
	e2 := exprOf(t, `<?php $a = ['x', 'y'];`)
	lit2 := e2.(*phpast.Assign).Value.(*phpast.ArrayLit)
	if len(lit2.Items) != 2 {
		t.Errorf("short items = %d", len(lit2.Items))
	}
}

func TestParseClosure(t *testing.T) {
	e := exprOf(t, `<?php $f = function($x) use (&$y) { return $x + $y; };`)
	cl, ok := e.(*phpast.Assign).Value.(*phpast.Closure)
	if !ok {
		t.Fatalf("value = %T", e.(*phpast.Assign).Value)
	}
	if len(cl.Params) != 1 || len(cl.Uses) != 1 || !cl.Uses[0].ByRef {
		t.Errorf("closure = %+v", cl)
	}
}

func TestParseEchoMulti(t *testing.T) {
	s := firstStmt(t, `<?php echo "a", $b, 1;`)
	ec := s.(*phpast.Echo)
	if len(ec.Args) != 3 {
		t.Errorf("args = %d", len(ec.Args))
	}
}

func TestParseGlobalStatement(t *testing.T) {
	s := firstStmt(t, `<?php global $wpdb, $wp_query;`)
	g := s.(*phpast.Global)
	if len(g.Names) != 2 || g.Names[0] != "wpdb" {
		t.Errorf("global = %+v", g)
	}
}

func TestParseExitDie(t *testing.T) {
	e := exprOf(t, `<?php die("nope");`)
	ex, ok := e.(*phpast.Exit)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if s, ok := ex.X.(*phpast.StringLit); !ok || s.Value != "nope" {
		t.Errorf("arg = %+v", ex.X)
	}
}

func TestParseNewObject(t *testing.T) {
	e := exprOf(t, `<?php $o = new WP_Error('code', "msg");`)
	n := e.(*phpast.Assign).Value.(*phpast.New)
	if n.Class != "WP_Error" || len(n.Args) != 2 {
		t.Errorf("new = %+v", n)
	}
}

func TestParseVariableFunction(t *testing.T) {
	e := exprOf(t, `<?php $func($a);`)
	c, ok := e.(*phpast.Call)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if _, ok := c.Func.(*phpast.Var); !ok {
		t.Errorf("callee = %T", c.Func)
	}
}

func TestParseListAssign(t *testing.T) {
	e := exprOf(t, `<?php list($a, $b) = explode(".", $name);`)
	a := e.(*phpast.Assign)
	if _, ok := a.Target.(*phpast.ListExpr); !ok {
		t.Errorf("target = %T", a.Target)
	}
}

func TestParseTryCatch(t *testing.T) {
	src := `<?php
try { risky(); } catch (FooException | BarException $e) { log_it($e); } finally { cleanup(); }`
	s := firstStmt(t, src)
	tr := s.(*phpast.Try)
	if len(tr.Catches) != 1 || len(tr.Catches[0].Types) != 2 || tr.Catches[0].Var != "e" {
		t.Errorf("catches = %+v", tr.Catches)
	}
	if tr.Finally == nil {
		t.Error("finally missing")
	}
}

func TestParseHTMLMixed(t *testing.T) {
	src := "<html><?php echo $x; ?><body><?php echo $y; ?></body></html>"
	f := mustParse(t, src)
	var htmls, echos int
	for _, s := range f.Stmts {
		switch s.(type) {
		case *phpast.InlineHTML:
			htmls++
		case *phpast.Echo:
			echos++
		}
	}
	if htmls != 3 || echos != 2 { // <html>, <body>, </body></html>
		t.Errorf("htmls = %d echos = %d", htmls, echos)
	}
}

func TestParsePositionsPreserved(t *testing.T) {
	src := "<?php\n$a = 1;\nif ($a) {\n\t$b = 2;\n}\n"
	f := mustParse(t, src)
	if got := f.Stmts[0].Pos().Line; got != 2 {
		t.Errorf("stmt0 line = %d, want 2", got)
	}
	iff := f.Stmts[1].(*phpast.If)
	if got := iff.Pos().Line; got != 3 {
		t.Errorf("if line = %d, want 3", got)
	}
	if got := iff.Then.Stmts[0].Pos().Line; got != 4 {
		t.Errorf("inner line = %d, want 4", got)
	}
}

func TestParseErrorRecovery(t *testing.T) {
	src := "<?php $a = ; $b = 2;"
	f, errs := Parse("bad.php", src)
	if len(errs) == 0 {
		t.Error("expected parse errors")
	}
	// The second statement must survive.
	found := false
	phpast.Walk(f, func(n phpast.Node) bool {
		if v, ok := n.(*phpast.Var); ok && v.Name == "b" {
			found = true
		}
		return true
	})
	if !found {
		t.Error("recovery lost $b = 2")
	}
}

// --- paper listings ---

// Listing 1 of the paper ("example1.php").
const listing1 = `<?php
function getFileName($file){
	return $_FILES[$file]['name'];
}

function handle_uploader($file, $savePath){
	$path_array = wp_upload_dir();
	$pathAndName = $path_array['path'] . "/" . $savePath;
	if (!move_uploaded_file($_FILES[$file]['tmp_name'], $pathAndName)) {
		return false;
	}
	return true;
}

if (!handle_uploader("upload_file", getFileName("upload_file"))) {
	echo "File_Uploaded_failure!";
}
`

func TestParseListing1(t *testing.T) {
	f := mustParse(t, listing1)
	var fns []string
	for _, s := range f.Stmts {
		if fd, ok := s.(*phpast.FuncDecl); ok {
			fns = append(fns, fd.Name)
		}
	}
	if len(fns) != 2 || fns[0] != "getFileName" || fns[1] != "handle_uploader" {
		t.Errorf("functions = %v", fns)
	}
	// The trailing if must reference both functions.
	last := f.Stmts[len(f.Stmts)-1].(*phpast.If)
	var calls []string
	phpast.Walk(last.Cond, func(n phpast.Node) bool {
		if c, ok := n.(*phpast.Call); ok {
			if name, ok := phpast.CalleeName(c); ok {
				calls = append(calls, name)
			}
		}
		return true
	})
	if len(calls) != 2 {
		t.Errorf("calls in cond = %v", calls)
	}
}

// Listing 2 of the paper (two-path example).
const listing2 = `<?php
$a = 55;
$a = $a + $b;
if ($a > 10) {
	$a = 22 - $b;
} else {
	$a = 88;
}
`

func TestParseListing2(t *testing.T) {
	f := mustParse(t, listing2)
	if len(f.Stmts) != 3 {
		t.Fatalf("stmts = %d", len(f.Stmts))
	}
	iff := f.Stmts[2].(*phpast.If)
	cond := iff.Cond.(*phpast.Binary)
	if cond.Op != ">" {
		t.Errorf("cond op = %s", cond.Op)
	}
}

// Listing 4 of the paper (vulnerable upload).
const listing4 = `<?php
$path_array = wp_upload_dir();
$pathAndName = $path_array['path'] . "/" . $_FILES['upload_file']['tmp_name'];
if (!move_uploaded_file($_FILES['upload_file']['tmp_name'], $pathAndName)) {
	return false;
}
return true;
`

func TestParseListing4(t *testing.T) {
	f := mustParse(t, listing4)
	if len(f.Stmts) != 4 {
		t.Fatalf("stmts = %d", len(f.Stmts))
	}
}

// Listing 8 of the paper (WP Demo Buddy).
const listing8 = `<?php
function file_Upload($type)
{
	global $wpdb;
	$upload_dir = get_option('wp_demo_buddy_upload_dir');
	$ext = pathinfo($_FILES[$type]['name'], PATHINFO_EXTENSION);
	if ($ext !== 'zip') return;
	$info = pathinfo($_FILES[$type]['name']);
	$newname = time() . rand() . '_' . $info['basename'] . '.php';
	$target = $upload_dir . $newname;
	move_uploaded_file($_FILES[$type]['tmp_name'], $target);
	$ret = array($newname, $info['basename']);
	return $ret;
}
`

func TestParseListing8(t *testing.T) {
	f := mustParse(t, listing8)
	fd := f.Stmts[0].(*phpast.FuncDecl)
	if fd.Name != "file_Upload" {
		t.Errorf("name = %s", fd.Name)
	}
	// The guard "if ($ext !== 'zip') return;" must parse as an If with a
	// single-return body.
	var guard *phpast.If
	phpast.Walk(fd, func(n phpast.Node) bool {
		if iff, ok := n.(*phpast.If); ok && guard == nil {
			guard = iff
		}
		return true
	})
	if guard == nil {
		t.Fatal("guard not found")
	}
	if b := guard.Cond.(*phpast.Binary); b.Op != "!==" {
		t.Errorf("guard op = %s", b.Op)
	}
}

// Property: the parser terminates and returns a non-nil file for arbitrary
// input without panicking.
func TestParseArbitraryInput(t *testing.T) {
	f := func(s string) bool {
		file, _ := Parse("fuzz.php", "<?php "+s)
		return file != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every statement's position line is within the line span of the
// source.
func TestParsePositionsInRange(t *testing.T) {
	srcs := []string{listing1, listing2, listing4, listing8}
	for _, src := range srcs {
		f := mustParse(t, src)
		maxLine := strings.Count(src, "\n") + 1
		phpast.Walk(f, func(n phpast.Node) bool {
			if p := n.Pos(); p.IsValid() && (p.Line < 1 || int(p.Line) > maxLine) {
				t.Errorf("node %T at line %d outside [1,%d]", n, p.Line, maxLine)
			}
			return true
		})
	}
}

func TestDumpDoesNotPanic(t *testing.T) {
	for _, src := range []string{listing1, listing2, listing4, listing8} {
		f := mustParse(t, src)
		if out := phpast.Dump(f); out == "" {
			t.Error("empty dump")
		}
	}
}
