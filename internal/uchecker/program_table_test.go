package uchecker

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/interp"
)

// TestProgramTableAgreement pins the shapes on which the call graph,
// the interpreter and the summary table once resolved functions, files
// and includes differently. Each must now give the verdict the
// interpreter's own semantics give, in both interprocedural modes:
//
//   - a function declared inside a method body, ahead of a top-level
//     function of the same name, is the one every stage runs;
//   - "./" and "../" includes resolve by directory before a base name
//     that two files share;
//   - a sink reached only through a constructor, or only through
//     call_user_func with a literal name, gets a locality root;
//   - an inlined callee runs in its declaring file, as the call graph
//     places it: its sink is labelled there, and its includes and
//     __DIR__ resolve against that file's directory.
//
// findings, when set, lists each finding as "file:line exploit-path".
func TestProgramTableAgreement(t *testing.T) {
	cases := []struct {
		name       string
		sources    map[string]string
		vulnerable bool
		findings   []string
	}{
		{
			// The nested f wins the name; it returns a constant, so the
			// destination is not attacker controlled.
			name: "nested method function",
			sources: map[string]string{"a.php": `<?php
class K {
	function m() {
		function f($x) { return "safe.txt"; }
	}
}
function f($x) { return $x; }
$n = $_FILES["f"]["name"];
move_uploaded_file($_FILES["f"]["tmp_name"], "up/" . f($n));
`},
		},
		{
			name: "dot-slash include beside a same-named file",
			sources: map[string]string{
				"sub/a.php": `<?php
$name = $_FILES["f"]["name"];
$tmp = $_FILES["f"]["tmp_name"];
include './helper.php';
`,
				"sub/helper.php": `<?php
move_uploaded_file($tmp, "up/" . $name);
`,
				"lib/helper.php": `<?php
echo "lib";
`,
			},
			vulnerable: true,
		},
		{
			name: "dot-dot include beside a same-named file",
			sources: map[string]string{
				"sub/a.php": `<?php
$name = $_FILES["f"]["name"];
$tmp = $_FILES["f"]["tmp_name"];
include '../helper.php';
`,
				"helper.php": `<?php
move_uploaded_file($tmp, "up/" . $name);
`,
				"lib/helper.php": `<?php
echo "lib";
`,
			},
			vulnerable: true,
		},
		{
			name: "constructor-only sink",
			sources: map[string]string{"a.php": `<?php
class Up {
	function __construct($f) {
		move_uploaded_file($f["tmp_name"], "up/" . $f["name"]);
	}
}
new Up($_FILES["f"]);
`},
			vulnerable: true,
		},
		{
			name: "call_user_func-only sink",
			sources: map[string]string{"a.php": `<?php
function save($f) {
	move_uploaded_file($f["tmp_name"], "up/" . $f["name"]);
}
call_user_func('save', $_FILES["f"]);
`},
			vulnerable: true,
		},
		{
			name: "sink in a callee's file",
			sources: map[string]string{
				"main.php": calleeMain,
				"lib/save.php": `<?php
function save($n) {
	$dir = "up/";
	$tmp = $_FILES['f']['tmp_name'];
	$dst = $dir . $n;
	move_uploaded_file($tmp, $dst);
}
`,
			},
			vulnerable: true,
			findings:   []string{"lib/save.php:6 up/..php"},
		},
		{
			name: "include inside a callee beside a same-named file",
			sources: map[string]string{
				"main.php": calleeMain,
				"lib/save.php": `<?php
function save($n) {
	include './helper.php';
}
`,
				"lib/helper.php": `<?php
move_uploaded_file($_FILES['f']['tmp_name'], "up/" . $n);
`,
				"helper.php": `<?php
echo "benign";
`,
			},
			vulnerable: true,
			findings:   []string{"lib/helper.php:2 up/..php"},
		},
		{
			name: "__DIR__ inside a callee",
			sources: map[string]string{
				"main.php": calleeMain,
				"lib/save.php": `<?php
function save($n) {
	move_uploaded_file($_FILES['f']['tmp_name'], __DIR__ . '/up/' . $n);
}
`,
			},
			vulnerable: true,
			findings:   []string{"lib/save.php:3 lib/up/..php"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range []interp.InterprocKind{interp.InterprocInline, interp.InterprocSummary} {
				rep, err := NewScanner(Options{Interproc: mode, Workers: 1}).
					Scan(context.Background(), Target{Name: tc.name, Sources: tc.sources})
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				if rep.Vulnerable != tc.vulnerable {
					t.Errorf("%s: Vulnerable = %v, want %v (roots %v, sinks %d, findings %v)",
						mode, rep.Vulnerable, tc.vulnerable, rep.Roots, rep.SinkCount, rep.Findings)
				}
				if tc.findings == nil {
					continue
				}
				var got []string
				for _, f := range rep.Findings {
					got = append(got, fmt.Sprintf("%s:%d %s", f.File, f.Line, f.ExploitPath))
				}
				if !slices.Equal(got, tc.findings) {
					t.Errorf("%s: findings %q, want %q", mode, got, tc.findings)
				}
			}
		})
	}
}

// calleeMain requires lib/save.php and passes it the uploaded name, for
// the cases whose sink sits in the callee.
const calleeMain = `<?php
require 'lib/save.php';
save($_FILES['f']['name']);
`
