// Command phpparse is a debugging tool for the PHP frontend: it dumps
// tokens, ASTs, or the extended call graph (Graphviz) for PHP sources.
//
//	phpparse -tokens file.php
//	phpparse -ast file.php
//	phpparse -callgraph dir/         # Graphviz dot on stdout
//	phpparse -locality dir/          # locality-analysis summary
//	phpparse -symex dir/             # per-path symbolic state for the roots
//
// Directories are read the way uchecker reads them by default (".php",
// ".php5" and ".inc" files), and files are processed in sorted path
// order, as the scanner does: the first declaration of a function name
// in that order wins it, so every run prints the same output.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/callgraph"
	"repro/internal/interp"
	"repro/internal/locality"
	"repro/internal/phpast"
	"repro/internal/phplex"
	"repro/internal/phpparser"
	"repro/internal/phptoken"
	"repro/internal/sexpr"
	"repro/internal/vulnmodel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes its output to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("phpparse", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tokens = fs.Bool("tokens", false, "dump tokens")
		ast    = fs.Bool("ast", false, "dump AST")
		cg     = fs.Bool("callgraph", false, "dump extended call graph as Graphviz dot")
		loc    = fs.Bool("locality", false, "run the locality analysis and print roots")
		symex  = fs.Bool("symex", false, "symbolically execute the locality roots and print per-path state")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: phpparse [-tokens|-ast|-callgraph|-locality|-symex] <file-or-dir>...")
		return 2
	}
	sources, err := load(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "phpparse: %v\n", err)
		return 2
	}
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)

	switch {
	case *tokens:
		for _, name := range names {
			fmt.Fprintf(stdout, "== %s ==\n", name)
			lex := phplex.New(name, sources[name])
			for {
				tok := lex.Next()
				fmt.Fprintln(stdout, tok)
				if tok.Kind == phptoken.EOF {
					break
				}
			}
		}
	case *ast:
		for _, name := range names {
			f, errs := phpparser.Parse(name, sources[name])
			for _, e := range errs {
				fmt.Fprintln(stderr, e)
			}
			fmt.Fprint(stdout, phpast.Dump(f))
		}
	case *cg:
		_, prog := parseAll(names, sources)
		fmt.Fprint(stdout, callgraph.BuildProgram(prog).Dot())
	case *loc:
		files, prog := parseAll(names, sources)
		res := locality.Analyze(callgraph.BuildProgram(prog), files, sources)
		fmt.Fprintf(stdout, "total LoC: %d, analyzed: %d (%.2f%%)\n", res.TotalLoC, res.AnalyzedLoC, res.PercentAnalyzed())
		for _, r := range res.Roots {
			fmt.Fprintf(stdout, "root: %s (%d lines)\n", r.Node, r.Lines)
		}
	case *symex:
		files, prog := parseAll(names, sources)
		res := locality.Analyze(callgraph.BuildProgram(prog), files, sources)
		engines := interp.NewEngines(prog)
		for _, r := range res.Roots {
			fmt.Fprintf(stdout, "== root %s ==\n", r.Node)
			out := engines.New(interp.Options{}).Run(context.Background(), r.Node)
			fmt.Fprintf(stdout, "paths: %d, objects: %d, sinks: %d\n",
				out.Paths, out.Graph.NumObjects(), len(out.Sinks))
			for i, env := range out.Envs {
				if i >= 8 {
					fmt.Fprintf(stdout, "  … %d more paths\n", len(out.Envs)-i)
					break
				}
				fmt.Fprintf(stdout, "  path %d: reach = %s\n", i+1, sexpr.Format(out.Graph.ToSexpr(env.Cur)))
				for _, v := range env.VarNames() {
					fmt.Fprintf(stdout, "    $%s = %s\n", v, sexpr.Format(out.Graph.ToSexpr(env.Get(v))))
				}
			}
			for _, hit := range out.Sinks {
				fmt.Fprintf(stdout, "  sink %s at %s:%d, dst = %s\n",
					hit.Sink, hit.File, hit.Line, sexpr.Format(out.Graph.ToSexpr(hit.Dst)))
			}
		}
	default:
		for _, name := range names {
			f, errs := phpparser.Parse(name, sources[name])
			fmt.Fprintf(stdout, "%s: %d top-level statements, %d parse errors\n", name, len(f.Stmts), len(errs))
		}
	}
	return 0
}

// parseAll parses the named sources in the given order and builds their
// one program table, which the call graph and the interpreter share.
func parseAll(names []string, sources map[string]string) ([]*phpast.File, *phpast.Program) {
	files := make([]*phpast.File, 0, len(names))
	for _, name := range names {
		f, _ := phpparser.Parse(name, sources[name])
		files = append(files, f)
	}
	return files, phpast.NewProgram(files)
}

// load reads every named file, and every file under a named directory
// whose extension uchecker reads by default.
func load(paths []string) (map[string]string, error) {
	accept := map[string]bool{".inc": true}
	for _, e := range vulnmodel.DefaultExtensions {
		accept[e] = true
	}
	sources := map[string]string{}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			sources[p] = string(data)
			continue
		}
		err = filepath.WalkDir(p, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !accept[strings.ToLower(filepath.Ext(path))] {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sources[path] = string(data)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return sources, nil
}
