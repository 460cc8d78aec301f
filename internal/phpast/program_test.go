package phpast_test

import (
	"testing"

	"repro/internal/phpast"
	"repro/internal/phpparser"
)

// program parses name/source pairs, in order, into a program table.
func program(t *testing.T, files ...string) *phpast.Program {
	t.Helper()
	var parsed []*phpast.File
	for i := 0; i < len(files); i += 2 {
		f, errs := phpparser.Parse(files[i], "<?php\n"+files[i+1])
		if len(errs) > 0 {
			t.Fatalf("%s: parse errors: %v", files[i], errs)
		}
		parsed = append(parsed, f)
	}
	return phpast.NewProgram(parsed)
}

// TestFirstDeclarationWins pins duplicate-name resolution: across files
// in scan order, between a method's bare name and a later function of
// the same name, and for functions declared inside a method body, the
// first declaration in walk order owns the name.
func TestFirstDeclarationWins(t *testing.T) {
	cases := []struct {
		name  string
		files []string
		// want maps a registered name to the file whose declaration
		// must own it; method marks names a method must own.
		want   map[string]string
		method map[string]bool
	}{
		{
			name: "across files",
			files: []string{
				"a.php", "function f($x) { return $x; } class C { function g() { return 1; } }",
				"b.php", "function f(&$x) { return $x; } function g() { return 1; }",
			},
			want:   map[string]string{"f": "a.php", "c::g": "a.php", "g": "a.php"},
			method: map[string]bool{"c::g": true, "g": true},
		},
		{
			name: "nested in a method body, ahead of a top-level function",
			files: []string{
				"a.php", "class K { function m() { function f() { return 1; } } }\nfunction f($x) { return $x; }",
			},
			want:   map[string]string{"k::m": "a.php", "m": "a.php", "f": "a.php"},
			method: map[string]bool{"k::m": true, "m": true},
		},
		{
			name: "nested in a method body of an earlier file",
			files: []string{
				"a.php", "class K { function m() { if ($c) { function h() { return 1; } } } }",
				"b.php", "function h($x) { return $x; }",
			},
			want:   map[string]string{"h": "a.php"},
			method: map[string]bool{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := program(t, tc.files...)
			for name, file := range tc.want {
				fn := p.Funcs[name]
				if fn == nil {
					t.Errorf("%s: not registered", name)
					continue
				}
				if fn.File != file || fn.Method != tc.method[name] {
					t.Errorf("%s: File=%s Method=%v, want %s/%v", name, fn.File, fn.Method, file, tc.method[name])
				}
			}
		})
	}

	// The nested f, not the top-level one, owns "f": its body returns a
	// literal and it takes no parameter.
	p := program(t, "a.php", "class K { function m() { function f() { return 1; } } }\nfunction f($x) { return $x; }")
	if f := p.Funcs["f"]; len(f.Decl.Params) != 0 || f.Decl.P.Line != 2 {
		t.Errorf("f: %d params at line %d, want the nested declaration (0 params, line 2)", len(f.Decl.Params), f.Decl.P.Line)
	}
	// Only the winners are the file's declarations, in source order.
	var decls []string
	for _, d := range p.Unit("a.php").Decls {
		decls = append(decls, d.Name)
	}
	if got := len(decls); got != 2 || decls[0] != "k::m" || decls[1] != "f" {
		t.Errorf("a.php declarations = %v, want [k::m f]", decls)
	}
	// A method is seen through a view named "Class::method".
	if m := p.Funcs["m"]; m != p.Funcs["k::m"] || m.Decl.Name != "K::m" {
		t.Errorf("m resolves to %+v, want the K::m view", m)
	}
}

// TestIncludeRule pins how an include's path resolves against the
// program's files.
func TestIncludeRule(t *testing.T) {
	p := program(t,
		"main.php", "echo 1;",
		"sub/a.php", "echo 1;",
		"sub/helper.php", "echo 1;",
		"lib/helper.php", "echo 1;",
		"lib/only.php", "echo 1;",
	)
	cases := []struct {
		from, src, want string
	}{
		{"sub/a.php", `include "sub/helper.php";`, "sub/helper.php"},    // raw path
		{"sub/a.php", `include "./helper.php";`, "sub/helper.php"},      // ./ against the includer's directory
		{"sub/a.php", `include "../lib/helper.php";`, "lib/helper.php"}, // ../
		{"sub/a.php", `include "../main.php";`, "main.php"},
		{"sub/a.php", `require_once __DIR__ . "/helper.php";`, "sub/helper.php"}, // trailing literal of a concatenation
		{"main.php", `include "vendor/only.php";`, "lib/only.php"},               // unique base name
		{"main.php", `include "vendor/helper.php";`, ""},                         // ambiguous base name
		{"main.php", `include $path;`, ""},                                       // not a constant path
		{"main.php", `include "missing.php";`, ""},
	}
	for _, tc := range cases {
		f, errs := phpparser.Parse(tc.from, "<?php "+tc.src)
		if len(errs) > 0 {
			t.Fatalf("%s: parse errors: %v", tc.src, errs)
		}
		var inc *phpast.Include
		phpast.Walk(f, func(n phpast.Node) bool {
			if x, ok := n.(*phpast.Include); ok && inc == nil {
				inc = x
			}
			return true
		})
		got := ""
		if u := p.Include(tc.from, inc); u != nil {
			got = u.Name
		}
		if got != tc.want {
			t.Errorf("%s from %s resolves to %q, want %q", tc.src, tc.from, got, tc.want)
		}
	}
}

// TestCallTargets pins the call-target rule for every call form the
// interpreter dispatches.
func TestCallTargets(t *testing.T) {
	p := program(t, "a.php", `
function save($a) {}
class Up { function __construct($f) {} function store() {} static function make() {} }
`)
	cases := []struct {
		src, name, decl string
		args            int
	}{
		{`save(1);`, "save", "save", 1},
		{`SAVE(1);`, "save", "save", 1},
		{`call_user_func('save', 1, 2);`, "save", "save", 2},
		{`call_user_func_array('Save', $a);`, "save", "save", 1},
		{`call_user_func($cb, 1);`, "call_user_func", "", 2},
		{`move_uploaded_file($a, $b);`, "move_uploaded_file", "", 2},
		{`Up::make();`, "up::make", "Up::make", 0},
		{`Up::store(1);`, "up::store", "Up::store", 1},
		{`Other::make();`, "make", "Up::make", 0},
		{`Other::copy($a, $b);`, "copy", "", 2},
		{`$o->store();`, "store", "Up::store", 0},
		{`$o->missing();`, "missing", "", 0},
		{`new Up($x);`, "up::__construct", "Up::__construct", 1},
		{`new Missing();`, "missing::__construct", "", 0},
	}
	for _, tc := range cases {
		f, errs := phpparser.Parse("t.php", "<?php "+tc.src)
		if len(errs) > 0 {
			t.Fatalf("%s: parse errors: %v", tc.src, errs)
		}
		var tgt phpast.Target
		found := false
		phpast.Walk(f, func(n phpast.Node) bool {
			if found {
				return false
			}
			tgt, found = p.Target(n)
			return !found
		})
		if !found {
			t.Errorf("%s: no target", tc.src)
			continue
		}
		decl := ""
		if tgt.Func != nil {
			decl = tgt.Func.Decl.Name
		}
		if tgt.Name != tc.name || decl != tc.decl || len(tgt.Args) != tc.args {
			t.Errorf("%s: target %q decl %q with %d args, want %q %q with %d", tc.src, tgt.Name, decl, len(tgt.Args), tc.name, tc.decl, tc.args)
		}
	}
	// A call through a variable has no target.
	f, _ := phpparser.Parse("t.php", "<?php $f(1);")
	phpast.Walk(f, func(n phpast.Node) bool {
		if c, ok := n.(*phpast.Call); ok {
			if _, ok := p.Target(c); ok {
				t.Errorf("$f(1) has a target")
			}
		}
		return true
	})
}
