package phpparser

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/phpast"
)

// TestParserListsExactLength checks that every list the parser gathers
// on a scratch stack (statement bodies, parameter lists, call arguments)
// comes out with its capacity equal to its length, over every corpus
// file and every FuzzParse seed. A list with spare capacity would let a
// consumer's append write into memory that another node holds.
func TestParserListsExactLength(t *testing.T) {
	var inputs []astInput
	for _, app := range corpus.All() {
		for _, n := range sortedNames(app.Sources) {
			inputs = append(inputs, astInput{name: app.Name + "/" + n, src: app.Sources[n]})
		}
	}
	for i, src := range fuzzSeeds {
		inputs = append(inputs, astInput{name: fmt.Sprintf("parse-seed #%d", i), src: src})
	}
	names, srcs := seedFiles(t, parseSeedDir)
	for i, src := range srcs {
		inputs = append(inputs, astInput{name: "parse-seed " + names[i], src: src})
	}

	checked := 0
	for _, in := range inputs {
		f, _ := Parse(in.name, in.src)
		phpast.Walk(f, func(n phpast.Node) bool {
			check := func(what string, length, capacity int) {
				if length != capacity {
					t.Errorf("%s: %s at %v has len %d, cap %d", in.name, what, n.Pos(), length, capacity)
				}
				if length > 1 {
					checked++
				}
			}
			switch x := n.(type) {
			case *phpast.Block:
				check("block", len(x.Stmts), cap(x.Stmts))
			case *phpast.FuncDecl:
				check("function params", len(x.Params), cap(x.Params))
				check("function body", len(x.Body), cap(x.Body))
			case *phpast.ClassMethod:
				check("method params", len(x.Params), cap(x.Params))
				check("method body", len(x.Body), cap(x.Body))
			case *phpast.Closure:
				check("closure params", len(x.Params), cap(x.Params))
				check("closure body", len(x.Body), cap(x.Body))
			case *phpast.Switch:
				for _, c := range x.Cases {
					check("case body", len(c.Stmts), cap(c.Stmts))
				}
			case *phpast.Call:
				check("call args", len(x.Args), cap(x.Args))
			case *phpast.MethodCall:
				check("method call args", len(x.Args), cap(x.Args))
			case *phpast.StaticCall:
				check("static call args", len(x.Args), cap(x.Args))
			case *phpast.New:
				check("new args", len(x.Args), cap(x.Args))
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no list of two or more elements was checked")
	}
}
