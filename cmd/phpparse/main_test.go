package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutputDeterministic: a.php and b.php both declare save(), b.php
// calls it with $_FILES and c.php includes b.php. Every mode that builds
// a program table must print the same output on every run, with save()
// resolved to a.php's declaration, the first in sorted path order.
func TestOutputDeterministic(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"a.php": "<?php\nfunction save($f) {\n  move_uploaded_file($f[\"tmp_name\"], \"up/\" . $f[\"name\"]);\n}\n",
		"b.php": "<?php\nfunction save($f) {\n  return $f;\n}\nsave($_FILES[\"u\"]);\n",
		"c.php": "<?php\ninclude \"b.php\";\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		mode, want string
	}{
		{"-callgraph", `[label="move_uploaded_file()"`},
		{"-locality", "root: "},
		{"-symex", "sink move_uploaded_file at " + filepath.Join(dir, "a.php") + ":3"},
	} {
		var first string
		for i := 0; i < 20; i++ {
			var out, errOut bytes.Buffer
			if code := run([]string{tc.mode, dir}, &out, &errOut); code != 0 {
				t.Fatalf("%s: exit %d: %s", tc.mode, code, errOut.String())
			}
			if i == 0 {
				first = out.String()
				if !strings.Contains(first, tc.want) {
					t.Fatalf("%s: output lacks %q:\n%s", tc.mode, tc.want, first)
				}
			} else if out.String() != first {
				t.Fatalf("%s: run %d differs from run 1:\n%s\nvs\n%s", tc.mode, i+1, out.String(), first)
			}
		}
	}
}
