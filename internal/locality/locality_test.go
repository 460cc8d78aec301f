package locality

import (
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/phpast"
	"repro/internal/phpparser"
)

func analyze(t *testing.T, srcs map[string]string) (Result, *callgraph.Graph) {
	t.Helper()
	var files []*phpast.File
	for name, src := range srcs {
		f, errs := phpparser.Parse(name, src)
		if len(errs) > 0 {
			t.Fatalf("%s: %v", name, errs)
		}
		files = append(files, f)
	}
	g := callgraph.Build(files)
	return Analyze(g, files, srcs), g
}

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

// The paper (Fig. 3 discussion): the LCA for Listing 1 is the file node
// example1.php, because both functions are below it and each special node
// has the file as the lowest node reaching both.
func TestLCAListing1IsFile(t *testing.T) {
	res, _ := analyze(t, map[string]string{"example1.php": listing1})
	if len(res.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(res.Roots))
	}
	r := res.Roots[0]
	if r.Node.Kind != callgraph.FileNode || r.Node.Name != "example1.php" {
		t.Errorf("root = %v", r.Node)
	}
}

// When a single function both accesses $_FILES and calls the sink, that
// function (not the file) is the LCA — the WooCommerce Custom Profile
// Picture case in Section IV-B, where only wc_cus_upload_picture() is
// executed.
func TestLCASingleFunction(t *testing.T) {
	src := `<?php
function wc_cus_upload_picture($foto) {
	$profilepicture = $foto;
	$wordpress_upload_dir = wp_upload_dir();
	$new_file_path = $wordpress_upload_dir['path'] . '/' . $profilepicture['name'];
	if (move_uploaded_file($profilepicture['tmp_name'], $new_file_path)) {
		return 1;
	}
	return 0;
}
if ($_FILES['profile_pic']) {
	$picture_id = wc_cus_upload_picture($_FILES['profile_pic']);
}
`
	res, _ := analyze(t, map[string]string{"wc.php": src})
	if len(res.Roots) != 1 {
		t.Fatalf("roots = %d, want 1: %+v", len(res.Roots), res.Roots)
	}
	// The file accesses $_FILES and the function calls the sink; the file
	// is the LCA here because the $_FILES access happens at file level.
	if res.Roots[0].Node.Kind != callgraph.FileNode {
		t.Errorf("root = %v, want file", res.Roots[0].Node)
	}
}

func TestLCAFunctionOnly(t *testing.T) {
	// Both the $_FILES access and the sink are inside one function; the
	// function is lower than the file.
	src := `<?php
function upload_file() {
	$name = $_FILES['userFile']['name'];
	move_uploaded_file($_FILES['userFile']['tmp_name'], "/up/" . $name);
}
upload_file();
`
	res, _ := analyze(t, map[string]string{"fp.php": src})
	if len(res.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(res.Roots))
	}
	if res.Roots[0].Node.Kind != callgraph.FuncNode || res.Roots[0].Node.Name != "upload_file" {
		t.Errorf("root = %v, want upload_file()", res.Roots[0].Node)
	}
}

func TestNoRootWithoutSink(t *testing.T) {
	src := `<?php $n = $_FILES['f']['name']; echo $n;`
	res, _ := analyze(t, map[string]string{"nosink.php": src})
	if len(res.Roots) != 0 {
		t.Errorf("roots = %+v, want none", res.Roots)
	}
}

func TestNoRootWithoutFiles(t *testing.T) {
	src := `<?php move_uploaded_file("/tmp/a", "/tmp/b");`
	res, _ := analyze(t, map[string]string{"nofiles.php": src})
	if len(res.Roots) != 0 {
		t.Errorf("roots = %+v, want none", res.Roots)
	}
}

// The headline effect of Table III: a large application where upload logic
// is a tiny fraction gets a tiny analyzed percentage.
func TestLocalityReduction(t *testing.T) {
	big := "<?php\n"
	for i := 0; i < 200; i++ {
		big += "function filler" + string(rune('a'+i%26)) + itoa(i) + "() {\n\t$x = 1;\n\t$y = 2;\n\treturn $x + $y;\n}\n"
	}
	srcs := map[string]string{
		"big.php": big,
		"up.php": `<?php
function do_upload() {
	move_uploaded_file($_FILES['f']['tmp_name'], "/up/" . $_FILES['f']['name']);
}
do_upload();
`,
	}
	res, _ := analyze(t, srcs)
	if len(res.Roots) != 1 {
		t.Fatalf("roots = %d", len(res.Roots))
	}
	if res.PercentAnalyzed() > 10 {
		t.Errorf("analyzed %% = %.1f, want < 10", res.PercentAnalyzed())
	}
	if res.TotalLoC < 1000 {
		t.Errorf("total LoC = %d, want > 1000", res.TotalLoC)
	}
}

// Multi-file applications: the root sits in the file that wires the pieces
// together.
func TestLocalityAcrossIncludes(t *testing.T) {
	srcs := map[string]string{
		"reader.php": `<?php
function read_upload() { return $_FILES['doc']; }`,
		"writer.php": `<?php
function write_upload($f, $dst) { move_uploaded_file($f['tmp_name'], $dst); }`,
		"glue.php": `<?php
include 'reader.php';
include 'writer.php';
$f = read_upload();
write_upload($f, "/srv/" . $f['name']);`,
	}
	res, _ := analyze(t, srcs)
	if len(res.Roots) != 1 {
		t.Fatalf("roots = %+v", res.Roots)
	}
	if res.Roots[0].Node.Name != "glue.php" {
		t.Errorf("root = %v, want glue.php", res.Roots[0].Node)
	}
}

func TestPercentAnalyzedEmpty(t *testing.T) {
	var r Result
	if r.PercentAnalyzed() != 0 {
		t.Error("empty result should be 0%")
	}
}

func TestAnalyzedNeverExceedsTotal(t *testing.T) {
	src := `<?php
function u() { move_uploaded_file($_FILES['f']['tmp_name'], "/x"); }
u();`
	res, _ := analyze(t, map[string]string{"tiny.php": src})
	if res.AnalyzedLoC > res.TotalLoC {
		t.Errorf("analyzed %d > total %d", res.AnalyzedLoC, res.TotalLoC)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// Two independent upload features (disjoint call-graph components) each
// get their own analysis root.
func TestTwoIndependentComponents(t *testing.T) {
	srcs := map[string]string{
		"gallery.php": `<?php
function gallery_upload() {
	move_uploaded_file($_FILES['img']['tmp_name'], "/g/" . $_FILES['img']['name']);
}
gallery_upload();
`,
		"docs.php": `<?php
function docs_upload() {
	move_uploaded_file($_FILES['doc']['tmp_name'], "/d/" . $_FILES['doc']['name']);
}
docs_upload();
`,
	}
	res, _ := analyze(t, srcs)
	if len(res.Roots) != 2 {
		t.Fatalf("roots = %d, want 2: %+v", len(res.Roots), res.Roots)
	}
}

// Dead code accessing $_FILES (never called) falls back to the
// minimal-cover rule and still selects the live upload flow.
func TestDeadAccessorFallback(t *testing.T) {
	srcs := map[string]string{
		"app.php": `<?php
function dead_reader() {
	return $_FILES['x']['name']; // never called
}
function live_upload() {
	move_uploaded_file($_FILES['y']['tmp_name'], "/u/a");
}
live_upload();
`,
	}
	res, _ := analyze(t, srcs)
	if len(res.Roots) == 0 {
		t.Fatal("fallback must still select a root")
	}
	found := false
	for _, r := range res.Roots {
		if r.Node.Name == "live_upload" || r.Node.Name == "app.php" {
			found = true
		}
	}
	if !found {
		t.Errorf("roots = %+v", res.Roots)
	}
}

// Roots are deterministic across runs.
func TestRootsDeterministic(t *testing.T) {
	srcs := map[string]string{
		"m.php": `<?php
function up_a() { move_uploaded_file($_FILES['a']['tmp_name'], "/a"); }
function up_b() { move_uploaded_file($_FILES['b']['tmp_name'], "/b"); }
up_a();
up_b();
`,
	}
	first, _ := analyze(t, srcs)
	for i := 0; i < 3; i++ {
		again, _ := analyze(t, srcs)
		if len(again.Roots) != len(first.Roots) {
			t.Fatal("root count drift")
		}
		for j := range again.Roots {
			if again.Roots[j].Node.String() != first.Roots[j].Node.String() {
				t.Fatalf("root order drift: %v vs %v", again.Roots, first.Roots)
			}
		}
	}
}

// srcFile is one named source, for tests that fix the scan order.
type srcFile struct{ name, src string }

// analyzeInOrder is analyze with the files handed to the call graph in
// the given order.
func analyzeInOrder(t *testing.T, srcs ...srcFile) Result {
	t.Helper()
	files := make([]*phpast.File, 0, len(srcs))
	sources := make(map[string]string, len(srcs))
	for _, s := range srcs {
		f, errs := phpparser.Parse(s.name, s.src)
		if len(errs) > 0 {
			t.Fatalf("%s: %v", s.name, errs)
		}
		files = append(files, f)
		sources[s.name] = s.src
	}
	return Analyze(callgraph.Build(files), files, sources)
}

// rootList renders roots as "file node lines" in result order.
func rootList(res Result) []string {
	var out []string
	for _, r := range res.Roots {
		out = append(out, r.File+" "+r.Node.String()+" "+itoa(r.Lines))
	}
	return out
}

func wantRoots(t *testing.T, res Result, want ...string) {
	t.Helper()
	got := rootList(res)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("roots = %q, want %q", got, want)
	}
}

// The only $_FILES access is in a function declared in a later file
// than the file that calls it and the sink: the component is still
// found from the accessor, and its root is the earlier file.
func TestLocalityAccessorInLaterFile(t *testing.T) {
	res := analyzeInOrder(t,
		srcFile{"a.php", `<?php
$tmp = up_tmp();
move_uploaded_file($tmp, "/u/x");
`},
		srcFile{"b.php", `<?php
function up_tmp() {
	return $_FILES['f']['tmp_name'];
}
`})
	wantRoots(t, res, "a.php a.php 5")
}

// Two accessors in one component are collected in one traversal: the
// second, which is also the root, must not start a component of its
// own and yield the root twice.
func TestLocalityTwoAccessorsOneComponent(t *testing.T) {
	res := analyzeInOrder(t, srcFile{"m.php", `<?php
function up_name() { return $_FILES['f']['name']; }
function up_save() {
	move_uploaded_file($_FILES['f']['tmp_name'], "/u/" . up_name());
}
up_save();
`})
	wantRoots(t, res, "m.php up_save() 4")
}

// Uncalled functions form components with no $_FILES access; declaring
// 500 of them, in a file scanned first, leaves the roots unchanged.
func TestLocalityIgnoresUncalledFunctions(t *testing.T) {
	upload := srcFile{"upload.php", `<?php
function handle() {
	move_uploaded_file($_FILES['f']['tmp_name'], "/u/" . $_FILES['f']['name']);
}
if (isset($_FILES['f'])) {
	handle();
}
`}
	var dead strings.Builder
	dead.WriteString("<?php\n")
	for i := 0; i < 500; i++ {
		dead.WriteString("function unused_" + itoa(i) + "($x) { return $x . '" + itoa(i) + "'; }\n")
	}
	alone := analyzeInOrder(t, upload)
	crowded := analyzeInOrder(t, srcFile{"dead.php", dead.String()}, upload)
	wantRoots(t, alone, "upload.php upload.php 6")
	wantRoots(t, crowded, rootList(alone)...)
	if crowded.AnalyzedLoC != alone.AnalyzedLoC {
		t.Errorf("analyzed LoC %d with uncalled functions, %d without", crowded.AnalyzedLoC, alone.AnalyzedLoC)
	}
}
