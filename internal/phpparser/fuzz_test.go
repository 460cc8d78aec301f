package phpparser

import (
	"testing"

	"repro/internal/phpast"
)

// fuzzSeeds are hand-picked pathological inputs: unterminated constructs,
// deep nesting, interpolation edge cases, heredocs, mixed HTML, stray
// bytes. The checked-in corpus under testdata/fuzz/FuzzParse extends this
// set with inputs the fuzzer found interesting.
var fuzzSeeds = []string{
	"",
	"<?php",
	"<?php echo 1;",
	"no php at all",
	"<?php function f( {",
	`<?php $s = "never closed`,
	"<?php $s = 'never closed",
	"<?php /* unterminated comment",
	"<?php if ($a { }",
	"<?php class C { function m( } }",
	"<?php $a = array(1, 2, array(3, array(",
	"<?php foreach ($a as => ) {}",
	`<?php $x = "interp $a[b] ${c} {$d->e} tail";`,
	"<?php $h = <<<EOT\nnever terminated",
	"<?php $h = <<<'EOT'\nraw\nEOT;\n",
	"<?php ?> trailing html <?php echo 2;",
	"<?php $x = 1 + ;",
	"<?php move_uploaded_file($_FILES['f']['tmp_name'], \"/up/\" . $_FILES['f']['name']);",
	"<?php switch ($x) { case 1: default }",
	"<?php do { } while (",
	"<?php $$$$a = 1;",
	"<?php \x00\xff\xfe binary garbage \x80",
	"<?php list($a, , $b) = $c;",
	"<?php function f() { return function() use ($x) { return $x; }; }",
	"<?php @$a->b()->c[1]::d;",
	"<?php echo 0x1f + 0b11 + 077 + 1e309;",
}

// FuzzParse asserts the parser never panics on arbitrary input and always
// returns a non-nil AST (error recovery produces a partial file, never
// nil) — the invariant the scanner's parse stage relies on for fault
// containment.
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, errs := Parse("fuzz.php", src)
		if file == nil {
			t.Fatalf("Parse returned nil AST (errs: %v)", errs)
		}
		for _, err := range errs {
			if err == nil {
				t.Fatal("nil error in parse error list")
			}
		}
		// The recovered AST must be walkable without panicking.
		n := 0
		phpast.Walk(file, func(phpast.Node) bool { n++; return true })
	})
}

// fuzzExprSeeds are FuzzParseExpr's in-code seeds.
var fuzzExprSeeds = []string{
	"", "1 + 2", `$a . "x$b"`, "f(g(", "$a ? : $b", "new C(1,", "(int)$x",
	"$_FILES['f']['name']", "$a[1][2][3]", "!~-+$x",
}

// FuzzParseExpr asserts the expression entry point holds the same
// no-panic contract.
func FuzzParseExpr(f *testing.F) {
	for _, seed := range fuzzExprSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ParseExpr("fuzz.php", src)
	})
}
