package vulnmodel

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/heapgraph"
	"repro/internal/sexpr"
	"repro/internal/smt"
	"repro/internal/translate"
)

// fixture builds the heap graph of the paper's Listing 4 sink:
//
//	src  = s_tmp (tainted: edge to $_FILES)
//	dst  = s_path . "/" . (s_name . s_ext)
//	cur  = (> (strlen (. s_name s_ext)) 5)
type fixture struct {
	g    *heapgraph.Graph
	src  heapgraph.Label
	dst  heapgraph.Label
	cur  heapgraph.Label
	tr   *translate.Translator
	name heapgraph.Label
}

func listing4Fixture() fixture {
	g := heapgraph.New()
	files := g.NewSymbol("$_FILES", sexpr.Array, 1)

	src := g.NewSymbol("s_tmp", sexpr.String, 3)
	g.AddEdge(src, files) // taint provenance

	sPath := g.NewSymbol("s_path", sexpr.String, 2)
	sName := g.NewSymbol("s_name", sexpr.String, 3)
	g.AddEdge(sName, files)
	sExt := g.NewSymbol("s_ext", sexpr.String, 3)
	g.AddEdge(sExt, files)

	nameExt := g.NewOp(".", sexpr.String, 3)
	g.AddEdge(nameExt, sName)
	g.AddEdge(nameExt, sExt)
	slash := g.NewConcrete(sexpr.StrVal("/"), 3)
	slashName := g.NewOp(".", sexpr.String, 3)
	g.AddEdge(slashName, slash)
	g.AddEdge(slashName, nameExt)
	dst := g.NewOp(".", sexpr.String, 3)
	g.AddEdge(dst, sPath)
	g.AddEdge(dst, slashName)

	strlenOp := g.NewFunc("strlen", sexpr.Int, 4)
	g.AddEdge(strlenOp, nameExt)
	five := g.NewConcrete(sexpr.IntVal(5), 4)
	cur := g.NewOp(">", sexpr.Bool, 4)
	g.AddEdge(cur, strlenOp)
	g.AddEdge(cur, five)

	return fixture{g: g, src: src, dst: dst, cur: cur, tr: translate.New(g), name: nameExt}
}

func TestModelListing4(t *testing.T) {
	fx := listing4Fixture()
	sink := Sink{
		Name: "move_uploaded_file", File: "up.php", Line: 4,
		Src: fx.src, Dst: fx.dst, Cur: fx.cur,
	}
	cand := Model(fx.g, fx.tr, sink, nil)
	Describe(fx.g, sink, &cand)

	if !cand.Tainted {
		t.Error("Constraint-1 should hold (src reaches $_FILES)")
	}
	// se_dst matches the paper's s-expression shape.
	seDst := sexpr.Format(cand.SeDst)
	if seDst != `(. s_path (. "/" (. s_name s_ext)))` {
		t.Errorf("se_dst = %s", seDst)
	}
	seReach := sexpr.Format(cand.SeReach)
	if seReach != "(> (strlen (. s_name s_ext)) 5)" {
		t.Errorf("se_reach = %s", seReach)
	}
	// The combined constraint is satisfiable (the paper's verdict).
	st, model, _, err := smt.NewSolver(smt.Options{}).Check(cand.Combined)
	if err != nil || st != smt.Sat {
		t.Fatalf("status=%v err=%v", st, err)
	}
	full := model["s_path"].S + "/" + model["s_name"].S + model["s_ext"].S
	if !strings.HasSuffix(full, ".php") && !strings.HasSuffix(full, ".php5") {
		t.Errorf("witness %v does not end with an executable extension", model)
	}
	// Source lines cover the constraint-building lines plus the sink line
	// (line 1 is the $_FILES object reached through taint provenance).
	if !reflect.DeepEqual(cand.Lines, []int{1, 2, 3, 4}) {
		t.Errorf("lines = %v", cand.Lines)
	}
}

func TestModelUntaintedSource(t *testing.T) {
	fx := listing4Fixture()
	clean := fx.g.NewConcrete(sexpr.StrVal("/etc/motd"), 9)
	cand := Model(fx.g, fx.tr, Sink{
		Name: "move_uploaded_file", File: "up.php", Line: 9,
		Src: clean, Dst: fx.dst, Cur: heapgraph.Null,
	}, nil)
	if cand.Tainted {
		t.Error("constant source must not be tainted")
	}
}

func TestModelNullCurIsTrue(t *testing.T) {
	fx := listing4Fixture()
	sink := Sink{
		Name: "move_uploaded_file", File: "up.php", Line: 4,
		Src: fx.src, Dst: fx.dst, Cur: heapgraph.Null,
	}
	cand := Model(fx.g, fx.tr, sink, nil)
	Describe(fx.g, sink, &cand)
	if cand.SeReach != nil {
		t.Errorf("SeReach = %v, want nil for unconditional path", cand.SeReach)
	}
	if !smt.Equal(cand.Reach, smt.True()) {
		t.Errorf("Reach = %s, want true", cand.Reach)
	}
}

func TestModelCustomExtensions(t *testing.T) {
	fx := listing4Fixture()
	cand := Model(fx.g, fx.tr, Sink{
		Name: "move_uploaded_file", File: "up.php", Line: 4,
		Src: fx.src, Dst: fx.dst, Cur: heapgraph.Null,
	}, []string{".asa"})
	// The extension constraint mentions only .asa.
	s := cand.Extension.String()
	if !strings.Contains(s, `".asa"`) || strings.Contains(s, `".php"`) {
		t.Errorf("extension constraint = %s", s)
	}
}

func TestModelDefaultExtensionsBoth(t *testing.T) {
	fx := listing4Fixture()
	cand := Model(fx.g, fx.tr, Sink{
		Name: "move_uploaded_file", File: "up.php", Line: 4,
		Src: fx.src, Dst: fx.dst, Cur: heapgraph.Null,
	}, nil)
	s := cand.Extension.String()
	if !strings.Contains(s, `".php"`) || !strings.Contains(s, `".php5"`) {
		t.Errorf("default extensions = %s", s)
	}
}

// Sharing the translator across two sinks keeps fallback symbols stable:
// the same opaque object translates to the same symbol in both candidates.
func TestModelTranslatorSharing(t *testing.T) {
	fx := listing4Fixture()
	opaque := fx.g.NewFunc("mystery", sexpr.String, 7)
	dst2 := fx.g.NewOp(".", sexpr.String, 7)
	fx.g.AddEdge(dst2, opaque)
	fx.g.AddEdge(dst2, fx.name)

	c1 := Model(fx.g, fx.tr, Sink{Name: "copy", File: "a.php", Line: 7, Src: fx.src, Dst: dst2, Cur: heapgraph.Null}, nil)
	c2 := Model(fx.g, fx.tr, Sink{Name: "copy", File: "a.php", Line: 7, Src: fx.src, Dst: dst2, Cur: heapgraph.Null}, nil)
	if c1.Extension.String() != c2.Extension.String() {
		t.Errorf("translator not stable:\n%s\n%s", c1.Extension, c2.Extension)
	}
}

func TestModelUnsatWhenConstantSafeSuffix(t *testing.T) {
	g := heapgraph.New()
	files := g.NewSymbol("$_FILES", sexpr.Array, 1)
	src := g.NewSymbol("s_tmp", sexpr.String, 1)
	g.AddEdge(src, files)
	name := g.NewSymbol("s_hash", sexpr.String, 2)
	png := g.NewConcrete(sexpr.StrVal(".png"), 2)
	dst := g.NewOp(".", sexpr.String, 2)
	g.AddEdge(dst, name)
	g.AddEdge(dst, png)

	cand := Model(g, translate.New(g), Sink{
		Name: "move_uploaded_file", File: "s.php", Line: 2,
		Src: src, Dst: dst, Cur: heapgraph.Null,
	}, nil)
	st, _, _, err := smt.NewSolver(smt.Options{}).Check(cand.Combined)
	if err != nil || st != smt.Unsat {
		t.Errorf("status=%v err=%v, want unsat", st, err)
	}
}
