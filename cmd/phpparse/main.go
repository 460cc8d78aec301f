// Command phpparse is a debugging tool for the PHP frontend: it dumps
// tokens, ASTs, or the extended call graph (Graphviz) for PHP sources.
//
//	phpparse -tokens file.php
//	phpparse -ast file.php
//	phpparse -callgraph dir/         # Graphviz dot on stdout
//	phpparse -locality dir/          # locality-analysis summary
//	phpparse -symex dir/             # per-path symbolic state for the roots
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/callgraph"
	"repro/internal/interp"
	"repro/internal/locality"
	"repro/internal/phpast"
	"repro/internal/phplex"
	"repro/internal/phpparser"
	"repro/internal/phptoken"
	"repro/internal/sexpr"
)

func main() {
	var (
		tokens = flag.Bool("tokens", false, "dump tokens")
		ast    = flag.Bool("ast", false, "dump AST")
		cg     = flag.Bool("callgraph", false, "dump extended call graph as Graphviz dot")
		loc    = flag.Bool("locality", false, "run the locality analysis and print roots")
		symex  = flag.Bool("symex", false, "symbolically execute the locality roots and print per-path state")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: phpparse [-tokens|-ast|-callgraph|-locality] <file-or-dir>...")
		os.Exit(2)
	}
	sources, err := load(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "phpparse: %v\n", err)
		os.Exit(2)
	}

	switch {
	case *tokens:
		for name, src := range sources {
			fmt.Printf("== %s ==\n", name)
			lex := phplex.New(name, src)
			for {
				tok := lex.Next()
				fmt.Println(tok)
				if tok.Kind == phptoken.EOF {
					break
				}
			}
		}
	case *ast:
		for name, src := range sources {
			f, errs := phpparser.Parse(name, src)
			for _, e := range errs {
				fmt.Fprintln(os.Stderr, e)
			}
			fmt.Print(phpast.Dump(f))
		}
	case *cg:
		g := callgraph.Build(parseAll(sources))
		fmt.Print(g.Dot())
	case *loc:
		files := parseAll(sources)
		g := callgraph.Build(files)
		res := locality.Analyze(g, files, sources)
		fmt.Printf("total LoC: %d, analyzed: %d (%.2f%%)\n", res.TotalLoC, res.AnalyzedLoC, res.PercentAnalyzed())
		for _, r := range res.Roots {
			fmt.Printf("root: %s (%d lines)\n", r.Node, r.Lines)
		}
	case *symex:
		files := parseAll(sources)
		g := callgraph.Build(files)
		res := locality.Analyze(g, files, sources)
		for _, r := range res.Roots {
			fmt.Printf("== root %s ==\n", r.Node)
			in := interp.New(files, interp.Options{})
			out := in.Run(context.Background(), r.Node)
			fmt.Printf("paths: %d, objects: %d, sinks: %d\n",
				out.Paths, out.Graph.NumObjects(), len(out.Sinks))
			for i, env := range out.Envs {
				if i >= 8 {
					fmt.Printf("  … %d more paths\n", len(out.Envs)-i)
					break
				}
				fmt.Printf("  path %d: reach = %s\n", i+1, sexpr.Format(out.Graph.ToSexpr(env.Cur)))
				for _, v := range env.VarNames() {
					fmt.Printf("    $%s = %s\n", v, sexpr.Format(out.Graph.ToSexpr(env.Get(v))))
				}
			}
			for _, hit := range out.Sinks {
				fmt.Printf("  sink %s at %s:%d, dst = %s\n",
					hit.Sink, hit.File, hit.Line, sexpr.Format(out.Graph.ToSexpr(hit.Dst)))
			}
		}
	default:
		for name, src := range sources {
			f, errs := phpparser.Parse(name, src)
			fmt.Printf("%s: %d top-level statements, %d parse errors\n", name, len(f.Stmts), len(errs))
		}
	}
}

func parseAll(sources map[string]string) []*phpast.File {
	var files []*phpast.File
	for name, src := range sources {
		f, _ := phpparser.Parse(name, src)
		files = append(files, f)
	}
	return files
}

func load(paths []string) (map[string]string, error) {
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
			if d.IsDir() || !strings.HasSuffix(strings.ToLower(path), ".php") {
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
