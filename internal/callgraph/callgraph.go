// Package callgraph builds the extended call graphs of UChecker's
// vulnerability-oriented locality analysis (Section III-A of the paper).
//
// Each node represents a PHP file, a function, a read access to the
// $_FILES superglobal, or an invocation of a file-upload sink
// (move_uploaded_file or file_put_contents). Directed edges represent:
//
//   - file a includes/requires file b,
//   - file a calls function b in its body,
//   - function a calls function b,
//   - a file or function accesses $_FILES.
//
// Recursive call edges are not built, so every graph is acyclic (the paper
// relies on this to make each connected call graph a tree and the lowest
// common ancestor well defined).
package callgraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/phpast"
)

// Kind classifies a node.
type Kind int

// Node kinds.
const (
	FileNode Kind = iota
	FuncNode
	FilesNode // read access to $_FILES
	SinkNode  // move_uploaded_file() / file_put_contents()
)

func (k Kind) String() string {
	switch k {
	case FileNode:
		return "file"
	case FuncNode:
		return "func"
	case FilesNode:
		return "$_FILES"
	default:
		return "sink"
	}
}

// Sinks is the set of file-writing built-ins treated as upload sinks, in
// lower case. The paper names move_uploaded_file() and file_put_content();
// the latter is spelled file_put_contents in real PHP, so both are
// accepted. copy() appears in real-world vulnerable plugins (e.g.
// WooCommerce Custom Profile Picture uses move_uploaded_file; others use
// copy) and is included.
var Sinks = map[string]bool{
	"move_uploaded_file": true,
	"file_put_contents":  true,
	"file_put_content":   true,
	"copy":               true,
	"rename":             true,
}

// Node is one node of the extended call graph.
type Node struct {
	Kind Kind
	// Name is the file path for FileNode, the (lower-cased) function name
	// for FuncNode, "$_FILES" for FilesNode, and the sink function name for
	// SinkNode.
	Name string
	// File is the file the node belongs to (declaration site for
	// functions). Empty for the shared $_FILES node.
	File string
	// Func is the declaration body for FuncNode (nil otherwise). Method
	// nodes carry the method body.
	Func *phpast.FuncDecl
	// Line is the declaration or occurrence line.
	Line int
}

func (n *Node) String() string {
	switch n.Kind {
	case FileNode:
		return n.Name
	case FuncNode:
		return n.Name + "()"
	case FilesNode:
		return "$_FILES"
	default:
		return n.Name + "()"
	}
}

// Graph is an extended call graph over a set of files.
type Graph struct {
	Nodes []*Node
	// Succ maps each node to its ordered successors.
	Succ map[*Node][]*Node

	prog        *phpast.Program
	files       map[string]*Node // file path -> node
	funcs       []Node           // function nodes, indexed by phpast.Func.ID
	filesAccess *Node            // the shared $_FILES node
	sinks       map[string]*Node // sink name -> node
}

// Build builds the program table of the given parsed files and returns
// BuildProgram over it. It remains for the separately built benchmark
// module and the tests; the scanner and cmd/phpparse build their table
// once and call BuildProgram.
func Build(files []*phpast.File) *Graph {
	return BuildProgram(phpast.NewProgram(files))
}

// BuildProgram constructs the extended call graph over a scan's program
// table. Functions, includes and call targets resolve through the same
// table the interpreter dispatches through, and only the graph's nodes
// and edges are built here.
func BuildProgram(prog *phpast.Program) *Graph {
	g := &Graph{
		// Files, functions, the $_FILES node and at most one node per sink.
		Nodes: make([]*Node, 0, len(prog.Units)+len(prog.Decls)+1+len(Sinks)),
		Succ:  map[*Node][]*Node{},
		prog:  prog,
		files: make(map[string]*Node, len(prog.Units)),
		funcs: make([]Node, len(prog.Decls)),
		sinks: map[string]*Node{},
	}
	// Pass 1: declare file and function nodes so calls can resolve forward
	// references.
	for _, u := range prog.Units {
		fn := &Node{Kind: FileNode, Name: u.Name, File: u.Name, Line: 1}
		g.Nodes = append(g.Nodes, fn)
		g.files[u.Name] = fn
		for _, d := range u.Decls {
			n := &g.funcs[d.ID]
			*n = Node{Kind: FuncNode, Name: d.Name, File: u.Name, Func: d.Decl, Line: int(d.Decl.P.Line)}
			g.Nodes = append(g.Nodes, n)
		}
	}
	// Pass 2: edges, from each file's top level and each function body.
	for _, u := range prog.Units {
		g.scanScope(g.files[u.Name], u.Name, u.Top)
		for _, d := range u.Decls {
			g.scanScope(&g.funcs[d.ID], u.Name, d.Decl.Body)
		}
	}
	return g
}

// scanScope adds edges from the scope node for calls, includes, $_FILES
// accesses and sink invocations found in the statements, excluding nested
// function declarations (their bodies are their own scopes). Parameter
// defaults count as part of the scope, matching the paper's note that a
// function's "parameter input" can access $_FILES.
func (g *Graph) scanScope(from *Node, file string, stmts []phpast.Stmt) {
	for _, s := range stmts {
		phpast.Walk(s, func(n phpast.Node) bool {
			switch x := n.(type) {
			case *phpast.FuncDecl, *phpast.ClassDecl:
				return false // nested declaration: separate scope
			case *phpast.Var:
				if x.Name == "_FILES" {
					g.addEdge(from, g.filesNode())
				}
			case *phpast.Call, *phpast.StaticCall:
				t, ok := g.prog.Target(x)
				if !ok {
					return true
				}
				if Sinks[t.Name] {
					g.addEdge(from, g.sinkNode(t.Name))
					return true
				}
				g.callEdge(from, t.Func)
				// String-literal callbacks passed to registration functions
				// (add_action/add_filter/register_*) create an edge to the
				// named callback: WordPress invokes it from this scope. The
				// interpreter does not run them, so only the call graph
				// draws these edges.
				if isCallbackRegistrar(t.Name) {
					for _, a := range t.Args {
						if lit, ok := a.(*phpast.StringLit); ok {
							g.callEdge(from, g.prog.Funcs[strings.ToLower(lit.Value)])
						}
					}
				}
			case *phpast.MethodCall, *phpast.New:
				t, _ := g.prog.Target(x)
				g.callEdge(from, t.Func)
			case *phpast.Include:
				if u := g.prog.Include(file, x); u != nil {
					g.addEdge(from, g.files[u.Name])
				}
			}
			return true
		})
	}
}

// callEdge adds an edge to a declared callee; a nil callee adds none.
func (g *Graph) callEdge(from *Node, callee *phpast.Func) {
	if callee != nil {
		g.addEdge(from, &g.funcs[callee.ID])
	}
}

// isCallbackRegistrar reports WordPress-style hook registration functions
// whose string arguments name callbacks.
func isCallbackRegistrar(name string) bool {
	switch name {
	case "add_action", "add_filter", "register_activation_hook",
		"register_deactivation_hook", "add_shortcode", "wp_ajax_handler":
		return true
	}
	return strings.HasPrefix(name, "add_") && strings.HasSuffix(name, "_hook")
}

func (g *Graph) filesNode() *Node {
	if g.filesAccess == nil {
		g.filesAccess = &Node{Kind: FilesNode, Name: "$_FILES"}
		g.Nodes = append(g.Nodes, g.filesAccess)
	}
	return g.filesAccess
}

func (g *Graph) sinkNode(name string) *Node {
	if n, ok := g.sinks[name]; ok {
		return n
	}
	n := &Node{Kind: SinkNode, Name: name}
	g.sinks[name] = n
	g.Nodes = append(g.Nodes, n)
	return n
}

// addEdge inserts a directed edge unless it already exists or would create
// a cycle (recursive calls are dropped per the paper).
func (g *Graph) addEdge(from, to *Node) {
	if from == to {
		return
	}
	for _, s := range g.Succ[from] {
		if s == to {
			return
		}
	}
	if g.reaches(to, from) {
		return // would close a cycle
	}
	g.Succ[from] = append(g.Succ[from], to)
}

// reaches reports whether dst is reachable from src.
func (g *Graph) reaches(src, dst *Node) bool {
	if src == dst {
		return true
	}
	seen := map[*Node]bool{}
	var dfs func(*Node) bool
	dfs = func(n *Node) bool {
		if n == dst {
			return true
		}
		if seen[n] {
			return false
		}
		seen[n] = true
		for _, s := range g.Succ[n] {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	return dfs(src)
}

// Reaches reports whether any node of the given kind is reachable from n
// (including n itself).
func (g *Graph) Reaches(n *Node, kind Kind) bool {
	seen := map[*Node]bool{}
	var dfs func(*Node) bool
	dfs = func(x *Node) bool {
		if x.Kind == kind {
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
	return dfs(n)
}

// Func returns the function node with the given (case-insensitive) name.
func (g *Graph) Func(name string) *Node {
	if fn := g.prog.Funcs[strings.ToLower(name)]; fn != nil {
		return &g.funcs[fn.ID]
	}
	return nil
}

// File returns the file node for the given path.
func (g *Graph) File(name string) *Node { return g.files[name] }

// FilesAccessNode returns the shared $_FILES node, or nil when no scope
// accesses $_FILES.
func (g *Graph) FilesAccessNode() *Node { return g.filesAccess }

// SinkNodes returns all sink nodes, sorted by name for determinism.
func (g *Graph) SinkNodes() []*Node {
	out := make([]*Node, 0, len(g.sinks))
	for _, n := range g.sinks {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Dot renders the graph in Graphviz format for debugging and the
// cmd/phpparse tool.
func (g *Graph) Dot() string {
	var sb strings.Builder
	sb.WriteString("digraph callgraph {\n")
	id := map[*Node]int{}
	for i, n := range g.Nodes {
		id[n] = i
		fmt.Fprintf(&sb, "  n%d [label=%q shape=%s];\n", i, n.String(), shapeOf(n.Kind))
	}
	for _, n := range g.Nodes {
		for _, s := range g.Succ[n] {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", id[n], id[s])
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func shapeOf(k Kind) string {
	switch k {
	case FileNode:
		return "box"
	case FuncNode:
		return "ellipse"
	default:
		return "diamond"
	}
}
