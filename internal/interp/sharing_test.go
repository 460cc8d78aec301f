package interp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/heapgraph"
)

// countOps returns how many operation objects with the given spelling
// the graph holds on a source line.
func countOps(g *heapgraph.Graph, name string, line int) int {
	n := 0
	for l := heapgraph.Label(1); int(l) <= g.NumObjects(); l++ {
		if o, _ := g.Find(l); o.Kind == heapgraph.KindOp && o.Name == name && int(o.Line) == line {
			n++
		}
	}
	return n
}

// TestOperandSharingCounts pins how many operation objects k symbolic
// ifs leave behind, which otherwise only the hashed object counts of the
// corpus goldens see. Across 2^k paths, a binary whose operands were
// bound before the first fork builds one op, a binary over a symbol each
// path binds for itself builds one op per path, and a branch whose paths
// all test the same condition label builds one negation.
func TestOperandSharingCounts(t *testing.T) {
	for _, k := range []int{1, 3, 6} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			var sb strings.Builder
			sb.WriteString("<?php\n$a = $p;\n$b = $q;\n$c = $r;\n") // lines 1-4
			for i := 1; i <= k; i++ {
				fmt.Fprintf(&sb, "if ($c%d) { $t = %d; }\n", i, i) // lines 5..4+k
			}
			shared, own, neg := 5+k, 6+k, 7+k
			sb.WriteString("$shared = $a . $b;\n") // every path: the same two labels
			sb.WriteString("$own = $u . $a;\n")    // $u: a fresh symbol on each path
			sb.WriteString("if ($c) { $z = 1; }\n")
			res := run(t, sb.String(), Options{})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			paths := 1 << k
			if res.Paths != 2*paths {
				t.Fatalf("paths = %d, want %d", res.Paths, 2*paths)
			}
			if got := countOps(res.Graph, ".", shared); got != 1 {
				t.Errorf("$a . $b built %d ops over %d paths, want 1", got, paths)
			}
			if got := countOps(res.Graph, ".", own); got != paths {
				t.Errorf("$u . $a built %d ops over %d paths, want %d", got, paths, paths)
			}
			if got := countOps(res.Graph, "!", neg); got != 1 {
				t.Errorf("if ($c) built %d negations over %d paths, want 1", got, paths)
			}
			first := res.Envs[0].Get("shared")
			seen := map[heapgraph.Label]bool{}
			for _, e := range res.Envs {
				if e.Get("shared") != first {
					t.Fatalf("$shared differs across paths: %d and %d", first, e.Get("shared"))
				}
				seen[e.Get("own")] = true
			}
			if len(seen) != paths {
				t.Errorf("$own takes %d labels across the paths, want %d", len(seen), paths)
			}
		})
	}
}

// TestContinueOuterLoop: a `continue 2` leaves the inner loop or switch
// as a pending `continue 1` and continues the loop around it, as PHP
// does, whatever kinds of loop the two are.
func TestContinueOuterLoop(t *testing.T) {
	for _, c := range []struct {
		name, body string
		want       map[string]string
	}{
		{"for in for", "for ($i = 0; $i < 2; $i++) { for ($j = 0; $j < 2; $j++) { continue 2; } $n = $n + 1; }",
			map[string]string{"after": "1", "i": "2", "n": "0"}},
		{"while in while", "while ($i < 2) { $i++; while (true) { continue 2; } $n = $n + 1; }",
			map[string]string{"after": "1", "i": "2", "n": "0"}},
		{"foreach in foreach", "foreach ([1, 2] as $x) { $c = $c + 1; foreach ([1, 2] as $y) { continue 2; } }",
			map[string]string{"after": "1", "c": "2"}},
		{"switch in for", "for ($i = 0; $i < 2; $i++) { $c = $c + 1; switch ($i) { case 0: continue 2; } $n = $n + 1; }",
			map[string]string{"after": "1", "c": "2", "i": "2", "n": "1"}},
	} {
		src := "<?php\n$n = 0;\n$c = 0;\n$i = 0;\n" + c.body + "\n$after = 1;\n"
		res := run(t, src, Options{})
		if res.Err != nil {
			t.Fatalf("%s: %v", c.name, res.Err)
		}
		if res.Paths != 1 {
			t.Fatalf("%s: paths = %d, want 1", c.name, res.Paths)
		}
		if e := res.Envs[0]; e.Suspended() {
			t.Errorf("%s: the path is still suspended (BreakN %d, ContinueN %d)", c.name, e.BreakN, e.ContinueN)
		}
		for name, want := range c.want {
			if got := val(t, res, name); got != want {
				t.Errorf("%s: $%s = %s, want %s", c.name, name, got, want)
			}
		}
	}
}

// TestLoopControlPastNesting: a break or continue whose level exceeds
// the loops around it leaves the path suspended after both loops, so
// the statement after them never runs on it. Env holds the level as an
// int16, so 99999 saturates; it must still behave as 99999 did.
func TestLoopControlPastNesting(t *testing.T) {
	for _, stmt := range []string{"break 99999;", "continue 99999;"} {
		src := "<?php\n$after = 0;\nwhile (true) {\n\twhile (true) {\n\t\t" + stmt + "\n\t}\n}\n$after = 1;\n"
		res := run(t, src, Options{LoopUnroll: 3})
		if res.Err != nil {
			t.Fatalf("%s: %v", stmt, res.Err)
		}
		if res.Paths != 1 {
			t.Fatalf("%s: paths = %d, want 1", stmt, res.Paths)
		}
		e := res.Envs[0]
		if !e.Suspended() {
			t.Errorf("%s: the path resumed after both loops (BreakN %d, ContinueN %d)", stmt, e.BreakN, e.ContinueN)
		}
		if got := val(t, res, "after"); got != "0" {
			t.Errorf("%s: after = %s, want 0", stmt, got)
		}
	}
}
