package phptoken

import "testing"

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		EOF:       "EOF",
		Variable:  "Variable",
		KwIf:      "if",
		Concat:    ".",
		Identical: "===",
		OpenTag:   "<?php",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(9999).String(); got != "Kind(9999)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestLookup(t *testing.T) {
	cases := map[string]Kind{
		"if":       KwIf,
		"function": KwFunction,
		"die":      KwExit,
		"exit":     KwExit,
		"and":      AndKw,
		"or":       OrKw,
		"xor":      XorKw,
		"banana":   Ident,
	}
	for in, want := range cases {
		if got := Lookup(in); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestIsAssignOp(t *testing.T) {
	for _, k := range []Kind{Assign, PlusAssign, ConcatAssign, CoalAssign, ShrAssign} {
		if !k.IsAssignOp() {
			t.Errorf("%v should be an assign op", k)
		}
	}
	for _, k := range []Kind{Plus, Eq, Arrow, KwIf} {
		if k.IsAssignOp() {
			t.Errorf("%v should not be an assign op", k)
		}
	}
}

func TestCompoundOp(t *testing.T) {
	cases := map[Kind]Kind{
		PlusAssign:   Plus,
		MinusAssign:  Minus,
		MulAssign:    Mul,
		DivAssign:    Div,
		ModAssign:    Mod,
		ConcatAssign: Concat,
		PowAssign:    Pow,
		CoalAssign:   Coal,
		AndAssign:    Amp,
		OrAssign:     Pipe,
		XorAssign:    Caret,
		ShlAssign:    Shl,
		ShrAssign:    Shr,
	}
	for in, want := range cases {
		got, ok := in.CompoundOp()
		if !ok || got != want {
			t.Errorf("CompoundOp(%v) = %v %v, want %v true", in, got, ok, want)
		}
	}
	if _, ok := Assign.CompoundOp(); ok {
		t.Error("plain = has no compound op")
	}
	if _, ok := Plus.CompoundOp(); ok {
		t.Error("+ has no compound op")
	}
}

func TestPos(t *testing.T) {
	p := Pos{Line: 3, Col: 7}
	if !p.IsValid() || p.String() != "3:7" {
		t.Errorf("pos = %v valid=%v", p, p.IsValid())
	}
	var zero Pos
	if zero.IsValid() || zero.String() != "-" {
		t.Errorf("zero pos = %q valid=%v", zero.String(), zero.IsValid())
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Kind: Variable, Value: "file", Pos: Pos{Line: 2, Col: 1}}
	if got := tok.String(); got != `Variable("file")@2:1` {
		t.Errorf("token string = %q", got)
	}
	semi := Token{Kind: Semicolon, Pos: Pos{Line: 1, Col: 9}}
	if got := semi.String(); got != ";@1:9" {
		t.Errorf("semi string = %q", got)
	}
}
