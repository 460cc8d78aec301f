package callgraph

import (
	"strings"
	"testing"

	"repro/internal/phpast"
	"repro/internal/phpparser"
)

func parseFiles(t *testing.T, srcs map[string]string) []*phpast.File {
	t.Helper()
	var files []*phpast.File
	for name, src := range srcs {
		f, errs := phpparser.Parse(name, src)
		if len(errs) > 0 {
			t.Fatalf("%s: %v", name, errs)
		}
		files = append(files, f)
	}
	return files
}

// listing1 is Listing 1 of the paper; Figure 3 shows its extended call
// graph: example1.php → {getFileName(), handle_uploader()},
// getFileName → $_FILES, handle_uploader → {$_FILES, move_uploaded_file()}.
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

func TestBuildListing1Figure3(t *testing.T) {
	files := parseFiles(t, map[string]string{"example1.php": listing1})
	g := Build(files)

	fileN := g.File("example1.php")
	if fileN == nil {
		t.Fatal("missing file node")
	}
	getName := g.Func("getfilename")
	handle := g.Func("handle_uploader")
	if getName == nil || handle == nil {
		t.Fatal("missing function nodes")
	}

	succOf := func(n *Node) map[string]bool {
		out := map[string]bool{}
		for _, s := range g.Succ[n] {
			out[s.String()] = true
		}
		return out
	}

	// Figure 3 edges.
	fs := succOf(fileN)
	if !fs["getfilename()"] || !fs["handle_uploader()"] {
		t.Errorf("file successors = %v", fs)
	}
	gs := succOf(getName)
	if !gs["$_FILES"] {
		t.Errorf("getFileName successors = %v", gs)
	}
	hs := succOf(handle)
	if !hs["$_FILES"] || !hs["move_uploaded_file()"] {
		t.Errorf("handle_uploader successors = %v", hs)
	}

	// The file node reaches both special nodes.
	if !g.Reaches(fileN, FilesNode) || !g.Reaches(fileN, SinkNode) {
		t.Error("file should reach $_FILES and sink")
	}
}

func TestBuildIncludeEdges(t *testing.T) {
	files := parseFiles(t, map[string]string{
		"main.php": `<?php include 'lib.php'; handle($_FILES['f']);`,
		"lib.php":  `<?php function handle($f) { move_uploaded_file($f['tmp_name'], "/tmp/x"); }`,
	})
	g := Build(files)
	mainN := g.File("main.php")
	libN := g.File("lib.php")
	found := false
	for _, s := range g.Succ[mainN] {
		if s == libN {
			found = true
		}
	}
	if !found {
		t.Error("missing include edge main.php -> lib.php")
	}
	if !g.Reaches(mainN, SinkNode) {
		t.Error("main should reach sink through handle()")
	}
}

func TestBuildIncludeRelativeAndDirname(t *testing.T) {
	files := parseFiles(t, map[string]string{
		"plugin/main.php":   `<?php require_once(dirname(__FILE__) . '/inc/up.php');`,
		"plugin/inc/up.php": `<?php move_uploaded_file($_FILES['f']['tmp_name'], $d);`,
	})
	g := Build(files)
	mainN := g.File("plugin/main.php")
	if !g.Reaches(mainN, SinkNode) {
		t.Error("dirname(__FILE__)-style include not resolved")
	}
}

func TestBuildNoRecursionEdges(t *testing.T) {
	files := parseFiles(t, map[string]string{
		"rec.php": `<?php
function a($n) { return b($n); }
function b($n) { return a($n - 1); }
a(3);`,
	})
	g := Build(files)
	// a -> b must exist; b -> a must be dropped (cycle).
	aN, bN := g.Func("a"), g.Func("b")
	hasEdge := func(x, y *Node) bool {
		for _, s := range g.Succ[x] {
			if s == y {
				return true
			}
		}
		return false
	}
	if !hasEdge(aN, bN) {
		t.Error("missing a -> b")
	}
	if hasEdge(bN, aN) {
		t.Error("recursive edge b -> a must be dropped")
	}
}

func TestBuildSelfRecursionDropped(t *testing.T) {
	files := parseFiles(t, map[string]string{
		"self.php": `<?php function f($n) { return f($n - 1); } f(3);`,
	})
	g := Build(files)
	fN := g.Func("f")
	for _, s := range g.Succ[fN] {
		if s == fN {
			t.Error("self edge must be dropped")
		}
	}
}

func TestBuildMethodNodes(t *testing.T) {
	files := parseFiles(t, map[string]string{
		"cls.php": `<?php
class Uploader {
	public function save($f) {
		move_uploaded_file($_FILES[$f]['tmp_name'], "/tmp/y");
	}
}
$u = new Uploader();
$u->save("pic");`,
	})
	g := Build(files)
	m := g.Func("uploader::save")
	if m == nil {
		t.Fatal("missing method node")
	}
	if !g.Reaches(m, SinkNode) || !g.Reaches(m, FilesNode) {
		t.Error("method should reach sink and $_FILES")
	}
	// The file calls the method (resolved via method-call scan).
	if !g.Reaches(g.File("cls.php"), SinkNode) {
		t.Error("file should reach sink through method call")
	}
}

// TestBuildDispatchEdges pins the edges for call forms the interpreter
// dispatches through the program table's call-target rule: a
// constructor, call_user_func with a literal name (to a function and to
// a sink), and a static call that falls back to a bare sink name.
func TestBuildDispatchEdges(t *testing.T) {
	files := parseFiles(t, map[string]string{
		"a.php": `<?php
class Up { function __construct($f) {} }
function save($f) {}
new Up($x);
call_user_func('save', $y);
call_user_func_array('file_put_contents', $z);
Other::copy($a, $b);`,
	})
	g := Build(files)
	succ := map[string]bool{}
	for _, n := range g.Succ[g.File("a.php")] {
		succ[n.String()] = true
	}
	for _, want := range []string{"up::__construct()", "save()", "file_put_contents()", "copy()"} {
		if !succ[want] {
			t.Errorf("a.php has no edge to %s; successors %v", want, succ)
		}
	}
}

func TestBuildCallbackRegistrar(t *testing.T) {
	files := parseFiles(t, map[string]string{
		"hook.php": `<?php
function my_upload_handler() {
	move_uploaded_file($_FILES['f']['tmp_name'], "/tmp/z");
}
add_action('wp_ajax_upload', 'my_upload_handler');`,
	})
	g := Build(files)
	if !g.Reaches(g.File("hook.php"), SinkNode) {
		t.Error("callback registered via add_action should create an edge")
	}
}

func TestBuildFilePutContents(t *testing.T) {
	files := parseFiles(t, map[string]string{
		"fpc.php": `<?php file_put_contents($dst, $_FILES['f']['tmp_name']);`,
	})
	g := Build(files)
	sinks := g.SinkNodes()
	if len(sinks) != 1 || sinks[0].Name != "file_put_contents" {
		t.Errorf("sinks = %v", sinks)
	}
}

func TestBuildNoFilesAccess(t *testing.T) {
	files := parseFiles(t, map[string]string{
		"plain.php": `<?php echo "hello";`,
	})
	g := Build(files)
	if g.FilesAccessNode() != nil {
		t.Error("no $_FILES node expected")
	}
	if g.Reaches(g.File("plain.php"), SinkNode) {
		t.Error("no sink expected")
	}
}

func TestDotOutput(t *testing.T) {
	files := parseFiles(t, map[string]string{"example1.php": listing1})
	g := Build(files)
	dot := g.Dot()
	for _, want := range []string{"digraph callgraph", "$_FILES", "move_uploaded_file()", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
}

func TestGraphAcyclicInvariant(t *testing.T) {
	// Arbitrary tangle of calls: graph must stay acyclic.
	files := parseFiles(t, map[string]string{
		"tangle.php": `<?php
function f1() { f2(); f3(); }
function f2() { f3(); f1(); }
function f3() { f1(); f2(); }
f1();`,
	})
	g := Build(files)
	// DFS cycle check.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[*Node]int{}
	var visit func(n *Node) bool
	visit = func(n *Node) bool {
		color[n] = gray
		for _, s := range g.Succ[n] {
			switch color[s] {
			case gray:
				return false
			case white:
				if !visit(s) {
					return false
				}
			}
		}
		color[n] = black
		return true
	}
	for _, n := range g.Nodes {
		if color[n] == white && !visit(n) {
			t.Fatal("cycle detected in extended call graph")
		}
	}
}

func TestLookupAccessors(t *testing.T) {
	files := parseFiles(t, map[string]string{"example1.php": listing1})
	g := Build(files)
	if g.Func("GETFILENAME") == nil {
		t.Error("Func lookup must be case-insensitive")
	}
	if g.Func("missing_function") != nil {
		t.Error("unknown function should be nil")
	}
	if g.File("nope.php") != nil {
		t.Error("unknown file should be nil")
	}
	if g.FilesAccessNode() == nil {
		t.Error("listing1 accesses $_FILES")
	}
}

func TestSinkNodesSorted(t *testing.T) {
	files := parseFiles(t, map[string]string{
		"s.php": `<?php
file_put_contents($a, $_FILES['x']['tmp_name']);
move_uploaded_file($_FILES['x']['tmp_name'], $b);
copy($_FILES['x']['tmp_name'], $c);
`,
	})
	g := Build(files)
	sinks := g.SinkNodes()
	if len(sinks) != 3 {
		t.Fatalf("sinks = %d", len(sinks))
	}
	for i := 1; i < len(sinks); i++ {
		if sinks[i-1].Name > sinks[i].Name {
			t.Errorf("sinks not sorted: %v", sinks)
		}
	}
}

func TestAmbiguousIncludeBasenameSkipped(t *testing.T) {
	files := parseFiles(t, map[string]string{
		"a/util.php": `<?php function a_util() {}`,
		"b/util.php": `<?php function b_util() {}`,
		"main.php":   `<?php include 'util.php';`,
	})
	g := Build(files)
	// Two candidates share the basename; the edge must not be guessed.
	for _, s := range g.Succ[g.File("main.php")] {
		if s.Kind == FileNode {
			t.Errorf("ambiguous include resolved to %v", s)
		}
	}
}

func TestNodeStringForms(t *testing.T) {
	files := parseFiles(t, map[string]string{"example1.php": listing1})
	g := Build(files)
	if got := g.File("example1.php").String(); got != "example1.php" {
		t.Errorf("file string = %q", got)
	}
	if got := g.Func("getfilename").String(); got != "getfilename()" {
		t.Errorf("func string = %q", got)
	}
	if got := g.FilesAccessNode().String(); got != "$_FILES" {
		t.Errorf("files string = %q", got)
	}
}
