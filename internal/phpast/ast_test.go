package phpast

import (
	"strings"
	"testing"

	"repro/internal/phptoken"
)

func pos(line int32) phptoken.Pos { return phptoken.Pos{Line: line, Col: 1} }

// sample builds a small synthetic tree covering many node kinds:
//
//	if ($x > 1) { $y = f($x, "s"); } else { return $x; }
func sample() *File {
	x := func() *Var { return &Var{P: pos(1), Name: "x"} }
	cond := &Binary{P: pos(1), Op: ">", L: x(), R: &IntLit{P: pos(1), Value: 1}}
	call := &Call{
		P:    pos(2),
		Func: &Name{P: pos(2), Value: "f"},
		Args: []Expr{x(), &StringLit{P: pos(2), Value: "s"}},
	}
	asgn := &Assign{P: pos(2), Target: &Var{P: pos(2), Name: "y"}, Value: call}
	iff := &If{
		P:    pos(1),
		Cond: cond,
		Then: &Block{P: pos(1), Stmts: []Stmt{&ExprStmt{P: pos(2), X: asgn}}},
		Else: &Block{P: pos(3), Stmts: []Stmt{&Return{P: pos(3), X: x()}}},
	}
	return &File{Name: "sample.php", Stmts: []Stmt{iff}}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	var kinds []string
	Walk(sample(), func(n Node) bool {
		switch n.(type) {
		case *Var:
			kinds = append(kinds, "var")
		case *Call:
			kinds = append(kinds, "call")
		case *If:
			kinds = append(kinds, "if")
		case *Return:
			kinds = append(kinds, "return")
		}
		return true
	})
	counts := map[string]int{}
	for _, k := range kinds {
		counts[k]++
	}
	if counts["var"] != 4 || counts["call"] != 1 || counts["if"] != 1 || counts["return"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestWalkPrunes(t *testing.T) {
	sawCall := false
	Walk(sample(), func(n Node) bool {
		if _, ok := n.(*If); ok {
			return false // prune the whole conditional
		}
		if _, ok := n.(*Call); ok {
			sawCall = true
		}
		return true
	})
	if sawCall {
		t.Error("pruned subtree was visited")
	}
}

func TestWalkNilSafe(t *testing.T) {
	// Nodes with nil children must not panic.
	nodes := []Node{
		&If{P: pos(1), Cond: &Var{P: pos(1), Name: "c"}, Then: &Block{P: pos(1)}},
		&Return{P: pos(1)},
		&Ternary{P: pos(1), Cond: &Var{P: pos(1), Name: "c"}, Else: &IntLit{P: pos(1)}},
		&Foreach{P: pos(1), Arr: &Var{P: pos(1), Name: "a"}, Val: &Var{P: pos(1), Name: "v"}, Body: &Block{P: pos(1)}},
	}
	for _, n := range nodes {
		Walk(n, func(Node) bool { return true })
	}
	// A nil interface is skipped outright.
	Walk(nil, func(Node) bool { return true })
}

func TestCalleeName(t *testing.T) {
	c := &Call{P: pos(1), Func: &Name{P: pos(1), Value: "Move_Uploaded_FILE"}}
	name, ok := CalleeName(c)
	if !ok || name != "move_uploaded_file" {
		t.Errorf("CalleeName = %q %v", name, ok)
	}
	dyn := &Call{P: pos(1), Func: &Var{P: pos(1), Name: "fn"}}
	if _, ok := CalleeName(dyn); ok {
		t.Error("dynamic callee should not resolve")
	}
}

func TestFilePos(t *testing.T) {
	f := sample()
	if f.Pos().Line != 1 {
		t.Errorf("file pos = %v", f.Pos())
	}
	empty := &File{Name: "e.php"}
	if empty.Pos().IsValid() {
		t.Error("empty file should have invalid pos")
	}
}

func TestDumpRendersStructure(t *testing.T) {
	out := Dump(sample())
	for _, want := range []string{
		"File sample.php",
		"If",
		"Binary >",
		"Var $x",
		"Assign",
		"Call",
		"Name f",
		`String "s"`,
		"else:",
		"Return",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	// Indentation reflects depth: Assign is nested under If/Block.
	if !strings.Contains(out, "\n    ") {
		t.Error("dump lacks indentation")
	}
}

func TestDumpMiscNodes(t *testing.T) {
	nodes := []Node{
		&InterpString{P: pos(1), Parts: []Expr{&StringLit{P: pos(1), Value: "a"}, &Var{P: pos(1), Name: "b"}}},
		&ArrayLit{P: pos(1), Items: []ArrayItem{{Key: &StringLit{P: pos(1), Value: "k"}, Value: &IntLit{P: pos(1), Value: 1}}}},
		&ArrayDim{P: pos(1), Arr: &Var{P: pos(1), Name: "a"}},
		&Ternary{P: pos(1), Cond: &Var{P: pos(1), Name: "c"}, Then: &IntLit{P: pos(1)}, Else: &IntLit{P: pos(1)}},
		&Closure{P: pos(1), Params: []Param{{Name: "p"}}},
		&Switch{P: pos(1), Subject: &Var{P: pos(1), Name: "s"}, Cases: []SwitchCase{{P: pos(1)}, {P: pos(1), Cond: &IntLit{P: pos(1), Value: 1}}}},
		&Try{P: pos(1), Body: &Block{P: pos(1)}, Catches: []Catch{{P: pos(1), Types: []string{"E"}, Body: &Block{P: pos(1)}}}, Finally: &Block{P: pos(1)}},
		&Global{P: pos(1), Names: []string{"wpdb"}},
		&Unset{P: pos(1), Vars: []Expr{&Var{P: pos(1), Name: "u"}}},
		&InlineHTML{P: pos(1), Text: "<b>hi</b>"},
		&ClassDecl{P: pos(1), Name: "C", Methods: []*ClassMethod{{P: pos(1), Name: "m"}}},
		&StaticCall{P: pos(1), Class: "C", Method: "m"},
		&MethodCall{P: pos(1), Obj: &Var{P: pos(1), Name: "o"}, Method: "go"},
		&PropFetch{P: pos(1), Obj: &Var{P: pos(1), Name: "o"}, Prop: "p"},
		&New{P: pos(1), Class: "K"},
		&Cast{P: pos(1), Type: "int", X: &Var{P: pos(1), Name: "v"}},
		&ErrorSuppress{P: pos(1), X: &Var{P: pos(1), Name: "v"}},
		&Include{P: pos(1), Kind: "require", X: &StringLit{P: pos(1), Value: "x.php"}},
		&Exit{P: pos(1)},
		&Isset{P: pos(1), Vars: []Expr{&Var{P: pos(1), Name: "v"}}},
		&Empty{P: pos(1), X: &Var{P: pos(1), Name: "v"}},
		&ListExpr{P: pos(1), Items: []Expr{&Var{P: pos(1), Name: "a"}}},
		&IncDec{P: pos(1), Op: "++", X: &Var{P: pos(1), Name: "i"}},
		&Break{P: pos(1), Level: 2},
		&Continue{P: pos(1)},
		&Nop{P: pos(1)},
		&Throw{P: pos(1), X: &Var{P: pos(1), Name: "e"}},
		&While{P: pos(1), Cond: &BoolLit{P: pos(1), Value: true}, Body: &Block{P: pos(1)}},
		&DoWhile{P: pos(1), Body: &Block{P: pos(1)}, Cond: &BoolLit{P: pos(1)}},
		&For{P: pos(1), Body: &Block{P: pos(1)}},
		&Foreach{P: pos(1), Arr: &Var{P: pos(1), Name: "a"}, Key: &Var{P: pos(1), Name: "k"}, Val: &Var{P: pos(1), Name: "v"}, Body: &Block{P: pos(1)}},
		&FuncDecl{P: pos(1), Name: "fn", Params: []Param{{Name: "a"}, {Name: "b"}}},
		&StaticVars{P: pos(1), Names: []string{"s"}, Inits: []Expr{nil}},
		&ConstFetch{P: pos(1), Name: "PHP_EOL"},
		&ClassConstFetch{P: pos(1), Class: "C", Const: "K"},
		&StaticPropFetch{P: pos(1), Class: "C", Prop: "p"},
		&FloatLit{P: pos(1), Value: 1.5},
		&NullLit{P: pos(1)},
		&Print{P: pos(1), X: &StringLit{P: pos(1), Value: "x"}},
		&Unary{P: pos(1), Op: "!", X: &BoolLit{P: pos(1)}},
	}
	for _, n := range nodes {
		if out := Dump(n); out == "" {
			t.Errorf("empty dump for %T", n)
		}
		// Walk must handle every node kind too.
		Walk(n, func(Node) bool { return true })
		if !n.Pos().IsValid() {
			t.Errorf("%T: invalid pos", n)
		}
	}
}
