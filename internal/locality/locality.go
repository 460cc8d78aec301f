// Package locality implements UChecker's vulnerability-oriented locality
// analysis (Section III-A of the paper).
//
// Given the extended call graph of a web application, the analysis finds
// every call graph that contains both a read access to $_FILES and an
// invocation of a file-upload sink, computes the lowest common ancestor of
// those two nodes, and designates that ancestor — a PHP file or a function —
// as the root whose body is symbolically executed. Everything else is
// skipped, which is what produces the large "% of LoC analyzed" reductions
// in Table III.
package locality

import (
	"sort"
	"strings"

	"repro/internal/callgraph"
	"repro/internal/phpast"
)

// Root is one analysis root selected by the locality analysis.
type Root struct {
	// Node is the lowest common ancestor node (file or function kind).
	Node *callgraph.Node
	// File is the path of the file containing the root.
	File string
	// Lines is the number of source lines attributed to the root's body
	// plus all functions reachable from it — the code that will actually be
	// symbolically executed.
	Lines int
}

// Result summarizes a locality analysis over an application.
type Result struct {
	// Roots are the selected analysis roots, deterministic order.
	Roots []Root
	// TotalLoC is the total number of source lines across all files.
	TotalLoC int
	// AnalyzedLoC is the number of source lines covered by the roots
	// (deduplicated).
	AnalyzedLoC int
	// FilesTotal is the number of parsed files considered.
	FilesTotal int
	// FilesPruned is the number of files the locality analysis skipped
	// entirely: no root lives in them and no function they declare is
	// reachable from any root. The ratio FilesPruned/FilesTotal is the
	// file-level face of the paper's "% of LoC analyzed" reduction.
	FilesPruned int
}

// PercentAnalyzed returns 100*AnalyzedLoC/TotalLoC, or 0 for empty input.
func (r Result) PercentAnalyzed() float64 {
	if r.TotalLoC == 0 {
		return 0
	}
	return 100 * float64(r.AnalyzedLoC) / float64(r.TotalLoC)
}

// Analyze runs the locality analysis. sources maps file name to source
// text (used only for line counting); files are the corresponding parsed
// trees.
func Analyze(g *callgraph.Graph, files []*phpast.File, sources map[string]string) Result {
	var res Result
	for _, src := range sources {
		res.TotalLoC += countLines(src)
	}

	roots := lowestCommonAncestors(g)
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].File != roots[j].File {
			return roots[i].File < roots[j].File
		}
		return roots[i].Name < roots[j].Name
	})

	fileIndex := map[string]*phpast.File{}
	for _, f := range files {
		fileIndex[f.Name] = f
	}

	counted := map[*callgraph.Node]bool{}
	for _, n := range roots {
		lines := analyzedLines(g, n, fileIndex, counted)
		res.Roots = append(res.Roots, Root{Node: n, File: n.File, Lines: lines})
	}
	for _, r := range res.Roots {
		res.AnalyzedLoC += r.Lines
	}
	if res.AnalyzedLoC > res.TotalLoC {
		res.AnalyzedLoC = res.TotalLoC
	}
	// File-level pruning: a file survives when any counted (analyzed)
	// node lives in it; everything else the symbolic executor never
	// touches.
	analyzedFiles := map[string]bool{}
	for n := range counted {
		analyzedFiles[n.File] = true
	}
	res.FilesTotal = len(files)
	for _, f := range files {
		if f != nil && !analyzedFiles[f.Name] {
			res.FilesPruned++
		}
	}
	return res
}

// lowestCommonAncestors selects the analysis roots.
//
// The paper computes, per call graph (tree), the lowest common ancestor of
// the $_FILES node and the sink node. With several access sites the tree
// reading places one leaf per site (Figure 3 draws $_FILES under
// getFileName only, making example1.php the LCA even though
// handle_uploader also touches $_FILES), so the natural generalization is:
// the lowest scope node that reaches EVERY $_FILES-accessing scope and
// EVERY sink-calling scope of its connected component. When no single node
// covers everything (e.g. dead code accessing $_FILES), the analysis falls
// back to the minimal nodes covering at least one access and one sink, so
// a vulnerable flow is never skipped.
func lowestCommonAncestors(g *callgraph.Graph) []*callgraph.Node {
	// Scope components: weakly-connected file/function nodes via
	// call/include edges only. The shared $_FILES and sink nodes are
	// excluded so that unrelated features do not merge. A component
	// without a $_FILES access can never yield a root, so only the
	// components of accessors (direct predecessors of $_FILES) are
	// collected, one traversal each.
	isScope := func(n *callgraph.Node) bool {
		return n.Kind == callgraph.FileNode || n.Kind == callgraph.FuncNode
	}
	var accessors []*callgraph.Node
	adj := map[*callgraph.Node][]*callgraph.Node{}
	for _, n := range g.Nodes {
		if !isScope(n) {
			continue
		}
		for _, s := range g.Succ[n] {
			switch {
			case s.Kind == callgraph.FilesNode:
				accessors = append(accessors, n)
			case isScope(s):
				adj[n] = append(adj[n], s)
				adj[s] = append(adj[s], n)
			}
		}
	}

	// Per component: its members, accessors and sink callers.
	type group struct {
		accessors   []*callgraph.Node
		sinkCallers []*callgraph.Node
		members     []*callgraph.Node
	}
	var groups []*group
	visited := map[*callgraph.Node]bool{}
	for _, a := range accessors {
		if visited[a] {
			continue
		}
		grp := &group{}
		groups = append(groups, grp)
		visited[a] = true
		stack := []*callgraph.Node{a}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			grp.members = append(grp.members, cur)
			for _, s := range g.Succ[cur] {
				switch s.Kind {
				case callgraph.FilesNode:
					grp.accessors = append(grp.accessors, cur)
				case callgraph.SinkNode:
					grp.sinkCallers = append(grp.sinkCallers, cur)
				}
			}
			for _, m := range adj[cur] {
				if !visited[m] {
					visited[m] = true
					stack = append(stack, m)
				}
			}
		}
	}

	var roots []*callgraph.Node
	for _, grp := range groups {
		if len(grp.sinkCallers) == 0 {
			continue
		}
		reachesScope := func(from, to *callgraph.Node) bool {
			if from == to {
				return true
			}
			seen := map[*callgraph.Node]bool{}
			var dfs func(*callgraph.Node) bool
			dfs = func(x *callgraph.Node) bool {
				if x == to {
					return true
				}
				if seen[x] {
					return false
				}
				seen[x] = true
				for _, s := range g.Succ[x] {
					if dfs(s) {
						return true
					}
				}
				return false
			}
			return dfs(from)
		}
		coversAll := func(n *callgraph.Node) bool {
			for _, a := range grp.accessors {
				if !reachesScope(n, a) {
					return false
				}
			}
			for _, s := range grp.sinkCallers {
				if !reachesScope(n, s) {
					return false
				}
			}
			return true
		}
		coversSome := func(n *callgraph.Node) bool {
			okA, okS := false, false
			for _, a := range grp.accessors {
				if reachesScope(n, a) {
					okA = true
					break
				}
			}
			for _, s := range grp.sinkCallers {
				if reachesScope(n, s) {
					okS = true
					break
				}
			}
			return okA && okS
		}
		candidates := make(map[*callgraph.Node]bool)
		for _, n := range grp.members {
			if coversAll(n) {
				candidates[n] = true
			}
		}
		if len(candidates) == 0 {
			for _, n := range grp.members {
				if coversSome(n) {
					candidates[n] = true
				}
			}
		}
		for n := range candidates {
			lowest := true
			for _, s := range g.Succ[n] {
				if candidates[s] {
					lowest = false
					break
				}
			}
			if lowest {
				roots = append(roots, n)
			}
		}
	}
	return roots
}

// analyzedLines counts the lines the symbolic executor will visit starting
// from root: the root's own body plus the bodies of all function nodes
// reachable from it, each counted once across all roots (counted is shared).
func analyzedLines(g *callgraph.Graph, root *callgraph.Node, files map[string]*phpast.File, counted map[*callgraph.Node]bool) int {
	total := 0
	seen := map[*callgraph.Node]bool{}
	var dfs func(n *callgraph.Node)
	dfs = func(n *callgraph.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if !counted[n] {
			counted[n] = true
			total += nodeLines(n, files)
		}
		for _, s := range g.Succ[n] {
			dfs(s)
		}
	}
	dfs(root)
	return total
}

// nodeLines attributes source lines to a node: a function's declaration
// span, or a file's top-level executable lines (excluding function and
// class declaration spans, which are counted by their own nodes when
// reachable).
func nodeLines(n *callgraph.Node, files map[string]*phpast.File) int {
	switch n.Kind {
	case callgraph.FuncNode:
		if n.Func == nil {
			return 0
		}
		return span(n.Func.P.Line, n.Func.EndLine)
	case callgraph.FileNode:
		f, ok := files[n.Name]
		if !ok {
			return 0
		}
		lines := 0
		for _, s := range f.Stmts {
			switch s.(type) {
			case *phpast.FuncDecl, *phpast.ClassDecl:
				continue
			case *phpast.InlineHTML, *phpast.Nop:
				continue
			default:
				lines += stmtSpan(s)
			}
		}
		return lines
	default:
		return 0
	}
}

func span(start, end int) int {
	if end < start {
		return 1
	}
	return end - start + 1
}

// stmtSpan estimates the line span of a statement from the minimum and
// maximum node positions inside it.
func stmtSpan(s phpast.Stmt) int {
	min, max := 0, 0
	phpast.Walk(s, func(n phpast.Node) bool {
		p := n.Pos()
		if !p.IsValid() {
			return true
		}
		if min == 0 || p.Line < min {
			min = p.Line
		}
		if p.Line > max {
			max = p.Line
		}
		return true
	})
	if min == 0 {
		return 1
	}
	// Closing braces are not represented by AST nodes; widen block-bearing
	// statements by one line per trailing brace level approximated as 1.
	w := max - min + 1
	switch s.(type) {
	case *phpast.If, *phpast.While, *phpast.For, *phpast.Foreach, *phpast.Switch, *phpast.DoWhile, *phpast.Try:
		w++
	}
	return w
}

// countLines counts newline-terminated lines, counting a trailing partial
// line.
func countLines(src string) int {
	if src == "" {
		return 0
	}
	n := strings.Count(src, "\n")
	if !strings.HasSuffix(src, "\n") {
		n++
	}
	return n
}
