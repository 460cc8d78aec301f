package interp

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/phpast"
	"repro/internal/phpparser"
	"repro/internal/sexpr"
	"repro/internal/summary"
)

// languageSeeds exercise the walker on general language forms. Both
// fuzzers below run them.
var languageSeeds = []string{
	// Guards, loops and calls, foreach/switch, try/ternary, classes and
	// casts.
	`<?php
$n = $_FILES["f"]["name"];
if (strpos($n, ".php") === false) { move_uploaded_file($_FILES["f"]["tmp_name"], "up/" . $n); }
`,
	`<?php
function ext($p) { $x = explode(".", $p); return end($x); }
for ($i = 0; $i < $k; $i++) { $s = $s . ext($names[$i]); }
`,
	`<?php
foreach ($_POST as $k => $v) { $data[$k] = $v; }
switch ($data["mode"]) { case "w": file_put_contents($f, $data["body"]); break; default: exit; }
`,
	`<?php
try { $r = $a ?: ($b ? 1 : 2); throw $e; } catch (E $x) { $r = -1; } finally { $done = true; }
while ($r > 0) { $r--; continue; }
`,
	`<?php
class C { function m($v) { return $v . "!"; } }
$o = new C();
echo $o->m((string)(int)$q), "done $q";
`,
	// Concrete folds: pure concrete subexpressions mixed with symbolic
	// tails and per-env unary/cast folds.
	`<?php
$a = "up" . "loads" . "/" . "img";
$b = 1 + 2 * 3 - (int)"7";
$c = -(5) . (string)(2 + 2) . $sym;
$d = !0;
if ("a" . "b" == "ab") { $e = $a . $b; }
`,
	// A function body inlined at three call sites and a loop body
	// revisited with identical live-in state.
	`<?php
function tag($x) {
	$t = "pre" . "fix";
	$u = $t . $x;
	return $u;
}
$r = tag($p) . tag($q) . tag($p) . tag($q);
for ($i = 0; $i < 5; $i++) {
	$m = "warn" . "ing";
	$n = strlen($m);
}
`,
}

// runFingerprint renders everything a run observably produced: path and
// heap-graph object counts, statistics, the error, every surviving
// environment and every sink hit with its graph labels and s-expressions.
// Labels make allocation order part of the comparison.
func runFingerprint(res Result) string {
	s := fmt.Sprintf("paths=%d objects=%d stats=%+v err=%v\n",
		res.Paths, res.Graph.NumObjects(), res.Stats, res.Err)
	for _, e := range res.Envs {
		s += fmt.Sprintf("env cur=%d cond=%s tmp=%v ret=%d term=%t\n",
			e.Cur, sexpr.Format(res.Graph.ToSexpr(e.Cur)), e.Tmp, e.Returned, e.Terminated)
	}
	for _, h := range res.Sinks {
		s += fmt.Sprintf("sink %s@%s:%d src=%d:%s dst=%d:%s cond=%s\n",
			h.Sink, h.File, h.Line,
			h.Src, sexpr.Format(res.Graph.ToSexpr(h.Src)),
			h.Dst, sexpr.Format(res.Graph.ToSexpr(h.Dst)),
			sexpr.Format(res.Graph.ToSexpr(h.Env.Cur)))
	}
	return s
}

// FuzzEngineEquivalence feeds arbitrary PHP sources through the engine a
// scan builds per root (EngineFactory.New over one shared file set) and
// requires byte-identical results from a first run, a second run over the
// same already-walked files, and a run over an independently parsed copy:
// same paths, heap-graph object count and allocation order, statistics,
// environments and sink hits. A mismatch means a run left state behind on
// the shared AST or in package globals. Tight budgets keep pathological
// inputs bounded.
func FuzzEngineEquivalence(f *testing.F) {
	for _, src := range languageSeeds {
		f.Add(src)
	}

	opts := Options{MaxPaths: 200, MaxObjects: 20000, MaxCallDepth: 8, LoopUnroll: 4}
	f.Fuzz(func(t *testing.T, src string) {
		parse := func() []*phpast.File {
			file, errs := phpparser.Parse("fuzz.php", src)
			if len(errs) > 0 || file == nil {
				return nil
			}
			return []*phpast.File{file}
		}
		shared := parse()
		if shared == nil {
			t.Skip("parse errors")
		}
		root := &callgraph.Node{Kind: callgraph.FileNode, Name: "fuzz.php", File: "fuzz.php"}
		factory := NewEngineFactory(EngineTree, shared)
		first := runFingerprint(factory.New(opts).Run(context.Background(), root))
		again := runFingerprint(factory.New(opts).Run(context.Background(), root))
		fresh := runFingerprint(New(parse(), opts).Run(context.Background(), root))
		if again != first {
			t.Errorf("rerun over shared files differs on %q:\n--- first ---\n%s--- rerun ---\n%s", src, first, again)
		}
		if fresh != first {
			t.Errorf("run over a fresh parse differs on %q:\n--- shared ---\n%s--- fresh ---\n%s", src, first, fresh)
		}
	})
}

// FuzzSummaryEquivalence feeds arbitrary PHP sources through the inline
// and summary interprocedural strategies and requires the invariants the
// strategy is sold on: (a) computing summaries never panics, (b) when both
// strategies complete within budget, the summary run explores no
// more paths than inline, every summary sink hit's observable content
// (sink, site, src/dst s-expressions) appears among inline's hits, and
// the first hit per sink site — the one the first-satisfiable-wins
// verifier would report — is identical across strategies.
func FuzzSummaryEquivalence(f *testing.F) {
	f.Add(`<?php
function handler() {
	if ($a) { $fa = 1; } else { $fa = 0; }
	if ($b) { $fb = 1; } else { $fb = 0; }
	move_uploaded_file($_FILES["f"]["tmp_name"], "up/x.php");
}
handler();
`)
	f.Add(`<?php
function pick($x, $y) { return $y; }
function updir() { return "uploads/"; }
$v = pick("a", $_FILES["f"]["name"]);
move_uploaded_file($_FILES["f"]["tmp_name"], updir() . $v);
`)
	f.Add(`<?php
function fill(&$out) { $out = $_FILES["f"]["name"]; }
fill($v);
switch ($s) { case 1: $m = 1; break; case 2: $m = 2; break; default: $m = 0; }
file_put_contents("up/" . $v, $body);
`)
	f.Add(`<?php
function rec($n) { if ($n > 0) { return rec($n - 1); } return $n; }
function a($x) { return b($x); }
function b($x) { return a($x); }
$r = rec(3) . a("q");
move_uploaded_file($_FILES["f"]["tmp_name"], "up/" . $r);
`)
	f.Add(`<?php
function handler() {
	if ($c) { $flag = 1; } else { $flag = 0; }
	if ($c) { $flag2 = 1; } else { $flag2 = 0; }
	$dst = "up/" . $flag . ".php";
	move_uploaded_file($_FILES["f"]["tmp_name"], $dst);
}
handler();
`)
	for _, src := range languageSeeds {
		f.Add(src)
	}

	opts := Options{MaxPaths: 200, MaxObjects: 20000, MaxCallDepth: 8, LoopUnroll: 4}
	f.Fuzz(func(t *testing.T, src string) {
		parse := func() []*phpast.File {
			file, errs := phpparser.Parse("fuzz.php", src)
			if len(errs) > 0 || file == nil {
				return nil
			}
			return []*phpast.File{file}
		}
		if parse() == nil {
			t.Skip("parse errors")
		}
		root := &callgraph.Node{Kind: callgraph.FileNode, Name: "fuzz.php", File: "fuzz.php"}
		runOne := func(sums *summary.Set) Result {
			o := opts
			o.Summaries = sums
			return New(parse(), o).Run(context.Background(), root)
		}

		sum := runOne(new(summary.Set))
		inline := runOne(nil)
		if inline.Err != nil || sum.Err != nil {
			return // a budget abort on either side voids the subset contract
		}
		if sum.Paths > inline.Paths {
			t.Errorf("summary explored more paths than inline: %d > %d", sum.Paths, inline.Paths)
		}
		hitKey := func(res Result, h SinkHit) string {
			return fmt.Sprintf("%s@%s:%d src=%s dst=%s", h.Sink, h.File, h.Line,
				sexpr.Format(res.Graph.ToSexpr(h.Src)), sexpr.Format(res.Graph.ToSexpr(h.Dst)))
		}
		inlineHits := map[string]int{}
		inlineFirst := map[string]string{}
		for _, h := range inline.Sinks {
			k := hitKey(inline, h)
			inlineHits[k]++
			site := fmt.Sprintf("%s:%d", h.File, h.Line)
			if _, ok := inlineFirst[site]; !ok {
				inlineFirst[site] = k
			}
		}
		sumFirst := map[string]string{}
		for _, h := range sum.Sinks {
			k := hitKey(sum, h)
			if inlineHits[k] == 0 {
				t.Errorf("summary sink hit absent from inline run: %s", k)
				continue
			}
			inlineHits[k]--
			site := fmt.Sprintf("%s:%d", h.File, h.Line)
			if _, ok := sumFirst[site]; !ok {
				sumFirst[site] = k
			}
		}
		for site, k := range sumFirst {
			if inlineFirst[site] != k {
				t.Errorf("first hit at %s differs:\nsummary: %s\ninline:  %s", site, k, inlineFirst[site])
			}
		}
	})
}
