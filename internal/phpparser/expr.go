package phpparser

import (
	"strconv"
	"strings"

	"repro/internal/phpast"
	"repro/internal/phplex"
	"repro/internal/phptoken"
)

// Binary operator precedence, following the PHP operator table. Higher
// binds tighter. Coalesce is right-associative; pow is right-associative.
var binPrec = map[phptoken.Kind]int{
	phptoken.Pow:          13,
	phptoken.KwInstanceof: 12,
	phptoken.Mul:          11,
	phptoken.Div:          11,
	phptoken.Mod:          11,
	phptoken.Plus:         10,
	phptoken.Minus:        10,
	phptoken.Concat:       10,
	phptoken.Shl:          9,
	phptoken.Shr:          9,
	phptoken.Lt:           8,
	phptoken.Gt:           8,
	phptoken.LtEq:         8,
	phptoken.GtEq:         8,
	phptoken.Eq:           7,
	phptoken.NotEq:        7,
	phptoken.Identical:    7,
	phptoken.NotIdent:     7,
	phptoken.Spaceship:    7,
	phptoken.Amp:          6,
	phptoken.Caret:        5,
	phptoken.Pipe:         4,
	phptoken.BoolAnd:      3,
	phptoken.BoolOr:       2,
	phptoken.Coal:         1,
}

var rightAssoc = map[phptoken.Kind]bool{
	phptoken.Pow:  true,
	phptoken.Coal: true,
}

// opSpelling maps binary operator kinds to their PHP spellings as used by
// the AST.
var opSpelling = map[phptoken.Kind]string{
	phptoken.Pow: "**", phptoken.Mul: "*", phptoken.Div: "/", phptoken.Mod: "%",
	phptoken.Plus: "+", phptoken.Minus: "-", phptoken.Concat: ".",
	phptoken.Shl: "<<", phptoken.Shr: ">>",
	phptoken.Lt: "<", phptoken.Gt: ">", phptoken.LtEq: "<=", phptoken.GtEq: ">=",
	phptoken.Eq: "==", phptoken.NotEq: "!=", phptoken.Identical: "===",
	phptoken.NotIdent: "!==", phptoken.Spaceship: "<=>",
	phptoken.Amp: "&", phptoken.Caret: "^", phptoken.Pipe: "|",
	phptoken.BoolAnd: "&&", phptoken.BoolOr: "||", phptoken.Coal: "??",
	phptoken.KwInstanceof: "instanceof",
	phptoken.AndKw:        "&&", phptoken.OrKw: "||", phptoken.XorKw: "xor",
}

// parseExpr parses a full expression including the low-precedence and/or/xor
// word operators.
func (p *Parser) parseExpr() phpast.Expr {
	left := p.parseAssign()
	for p.atAny(phptoken.AndKw, phptoken.OrKw, phptoken.XorKw) {
		t := p.next()
		right := p.parseAssign()
		left = &phpast.Binary{P: t.Pos, Op: opSpelling[t.Kind], L: left, R: right}
	}
	return left
}

func (p *Parser) parseAssign() phpast.Expr {
	left := p.parseTernary()
	k := p.cur().Kind
	if !k.IsAssignOp() {
		return left
	}
	t := p.next()
	op := ""
	if base, ok := k.CompoundOp(); ok {
		op = opSpelling[base]
	}
	byRef := false
	if k == phptoken.Assign && p.accept(phptoken.Amp) {
		byRef = true
	}
	right := p.parseAssign() // right-associative
	return &phpast.Assign{P: t.Pos, Op: op, Target: left, Value: right, ByRef: byRef}
}

func (p *Parser) parseTernary() phpast.Expr {
	cond := p.parseBinary(0)
	if !p.at(phptoken.Quest) {
		return cond
	}
	t := p.next()
	var then phpast.Expr
	if !p.at(phptoken.Colon) {
		then = p.parseExpr()
	}
	p.expect(phptoken.Colon)
	els := p.parseTernary()
	return &phpast.Ternary{P: t.Pos, Cond: cond, Then: then, Else: els}
}

func (p *Parser) parseBinary(minPrec int) phpast.Expr {
	left := p.parseUnary()
	for {
		k := p.cur().Kind
		prec, ok := binPrec[k]
		if !ok || prec < minPrec {
			return left
		}
		t := p.next()
		next := prec + 1
		if rightAssoc[k] {
			next = prec
		}
		if k == phptoken.KwInstanceof {
			// Right operand is a class name or variable.
			var r phpast.Expr
			if p.at(phptoken.Variable) {
				v := p.next()
				r = &phpast.Var{P: v.Pos, Name: v.Value}
			} else {
				np := p.cur().Pos
				r = &phpast.Name{P: np, Value: p.parseQualifiedName()}
			}
			left = &phpast.Binary{P: t.Pos, Op: "instanceof", L: left, R: r}
			continue
		}
		right := p.parseBinary(next)
		left = &phpast.Binary{P: t.Pos, Op: opSpelling[k], L: left, R: right}
	}
}

// castTypes are the identifiers valid inside a cast "(int)$x".
var castTypes = map[string]string{
	"int": "int", "integer": "int",
	"bool": "bool", "boolean": "bool",
	"float": "float", "double": "float", "real": "float",
	"string": "string", "binary": "string",
	"array": "array", "object": "object", "unset": "unset",
}

func (p *Parser) parseUnary() phpast.Expr {
	t := p.cur()
	switch t.Kind {
	case phptoken.Not:
		p.next()
		return &phpast.Unary{P: t.Pos, Op: "!", X: p.parseUnary()}
	case phptoken.Minus:
		p.next()
		return &phpast.Unary{P: t.Pos, Op: "-", X: p.parseUnary()}
	case phptoken.Plus:
		p.next()
		return &phpast.Unary{P: t.Pos, Op: "+", X: p.parseUnary()}
	case phptoken.Tilde:
		p.next()
		return &phpast.Unary{P: t.Pos, Op: "~", X: p.parseUnary()}
	case phptoken.At:
		p.next()
		return &phpast.ErrorSuppress{P: t.Pos, X: p.parseUnary()}
	case phptoken.Inc:
		p.next()
		return &phpast.IncDec{P: t.Pos, Op: "++", Pre: true, X: p.parseUnary()}
	case phptoken.Dec:
		p.next()
		return &phpast.IncDec{P: t.Pos, Op: "--", Pre: true, X: p.parseUnary()}
	case phptoken.KwPrint:
		p.next()
		return &phpast.Print{P: t.Pos, X: p.parseExpr()}
	case phptoken.KwNew:
		p.next()
		cls := ""
		if p.at(phptoken.Ident) || p.at(phptoken.Bslash) {
			cls = p.parseQualifiedName()
		} else if p.at(phptoken.Variable) {
			cls = "$" + p.next().Value
		} else if p.at(phptoken.KwStatic) {
			p.next()
			cls = "static"
		} else if p.at(phptoken.KwClass) {
			// Anonymous class: new class(args) extends B { ... } — parse
			// and discard the declaration body.
			p.next()
			var args []phpast.Expr
			if p.at(phptoken.LParen) {
				args = p.parseArgs()
			}
			if p.accept(phptoken.KwExtends) {
				p.parseQualifiedName()
			}
			if p.accept(phptoken.KwImplements) {
				for {
					p.parseQualifiedName()
					if !p.accept(phptoken.Comma) {
						break
					}
				}
			}
			anon := &phpast.ClassDecl{P: t.Pos, Name: "class@anonymous", Consts: map[string]phpast.Expr{}}
			p.expect(phptoken.LBrace)
			for !p.at(phptoken.RBrace) && !p.at(phptoken.EOF) {
				p.parseClassMember(anon)
			}
			p.expect(phptoken.RBrace)
			return &phpast.New{P: t.Pos, Class: "class@anonymous", Args: args}
		}
		var args []phpast.Expr
		if p.at(phptoken.LParen) {
			args = p.parseArgs()
		}
		n := &phpast.New{P: t.Pos, Class: cls, Args: args}
		return p.parsePostfixOps(n)
	case phptoken.KwInclude, phptoken.KwIncludeOnce, phptoken.KwRequire, phptoken.KwRequireOnce:
		p.next()
		kind := map[phptoken.Kind]string{
			phptoken.KwInclude:     "include",
			phptoken.KwIncludeOnce: "include_once",
			phptoken.KwRequire:     "require",
			phptoken.KwRequireOnce: "require_once",
		}[t.Kind]
		return &phpast.Include{P: t.Pos, Kind: kind, X: p.parseExpr()}
	case phptoken.KwExit:
		p.next()
		var x phpast.Expr
		if p.accept(phptoken.LParen) {
			if !p.at(phptoken.RParen) {
				x = p.parseExpr()
			}
			p.expect(phptoken.RParen)
		}
		return &phpast.Exit{P: t.Pos, X: x}
	case phptoken.LParen:
		// Possibly a cast.
		if p.peek(1).Kind == phptoken.Ident || p.peek(1).Kind == phptoken.KwArray || p.peek(1).Kind == phptoken.KwUnset {
			name := strings.ToLower(p.peek(1).Value)
			if p.peek(1).Kind == phptoken.KwArray {
				name = "array"
			} else if p.peek(1).Kind == phptoken.KwUnset {
				name = "unset"
			}
			if ct, ok := castTypes[name]; ok && p.peek(2).Kind == phptoken.RParen {
				// Heuristic: "(int)x" is a cast; "(foo)" alone would be a
				// parenthesized constant, but castTypes only contains
				// reserved cast names, which cannot be constants in practice.
				p.next() // (
				p.next() // type
				p.next() // )
				return &phpast.Cast{P: t.Pos, Type: ct, X: p.parseUnary()}
			}
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parseArgs() []phpast.Expr {
	p.expect(phptoken.LParen)
	mark := len(p.exprs)
	for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
		p.accept(phptoken.Amp) // by-ref call-site (legacy)
		// Parse into a local first: the argument's own calls push and
		// pop above mark, and append may read p.exprs before or after.
		x := p.parseExpr()
		p.exprs = append(p.exprs, x)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.RParen)
	return pop(&p.exprs, mark)
}

func (p *Parser) parsePostfix() phpast.Expr {
	e := p.parsePrimary()
	e = p.parsePostfixOps(e)
	// A bare name that was never used as a callee or class reference is a
	// constant fetch (e.g. PATHINFO_EXTENSION, PHP_EOL).
	if n, ok := e.(*phpast.Name); ok {
		return &phpast.ConstFetch{P: n.P, Name: n.Value}
	}
	return e
}

func (p *Parser) parsePostfixOps(e phpast.Expr) phpast.Expr {
	for {
		t := p.cur()
		switch t.Kind {
		case phptoken.LBracket:
			p.next()
			var idx phpast.Expr
			if !p.at(phptoken.RBracket) {
				idx = p.parseExpr()
			}
			p.expect(phptoken.RBracket)
			e = &phpast.ArrayDim{P: t.Pos, Arr: e, Index: idx}
		case phptoken.LBrace:
			// Legacy curly string offset $s{0}: only when e is a var-ish
			// expression and next tokens look like an index. We keep it
			// conservative: only Var/ArrayDim receivers.
			switch e.(type) {
			case *phpast.Var, *phpast.ArrayDim, *phpast.PropFetch:
				p.next()
				idx := p.parseExpr()
				p.expect(phptoken.RBrace)
				e = &phpast.ArrayDim{P: t.Pos, Arr: e, Index: idx}
			default:
				return e
			}
		case phptoken.Arrow:
			p.next()
			var name string
			switch {
			case p.at(phptoken.Ident):
				name = p.next().Value
			case p.at(phptoken.Variable):
				// $obj->$dyn: dynamic property; keep the variable's name
				// prefixed to mark dynamism.
				name = "$" + p.next().Value
			default:
				// Method names can collide with keywords ("list", "print").
				name = p.next().Value
			}
			if p.at(phptoken.LParen) {
				args := p.parseArgs()
				e = &phpast.MethodCall{P: t.Pos, Obj: e, Method: name, Args: args}
			} else {
				e = &phpast.PropFetch{P: t.Pos, Obj: e, Prop: name}
			}
		case phptoken.Scope:
			cls := nameOf(e)
			p.next()
			switch {
			case p.at(phptoken.Variable):
				v := p.next()
				e = &phpast.StaticPropFetch{P: t.Pos, Class: cls, Prop: v.Value}
			case p.at(phptoken.KwClass):
				p.next()
				e = &phpast.ClassConstFetch{P: t.Pos, Class: cls, Const: "class"}
			default:
				name := p.next().Value
				if p.at(phptoken.LParen) {
					args := p.parseArgs()
					e = &phpast.StaticCall{P: t.Pos, Class: cls, Method: name, Args: args}
				} else {
					e = &phpast.ClassConstFetch{P: t.Pos, Class: cls, Const: name}
				}
			}
		case phptoken.LParen:
			// Call: callee may be a Name (function), Var (variable function),
			// or any callable expression.
			switch e.(type) {
			case *phpast.Name, *phpast.Var, *phpast.ArrayDim, *phpast.PropFetch, *phpast.Closure, *phpast.Call:
				args := p.parseArgs()
				e = &phpast.Call{P: t.Pos, Func: e, Args: args}
			default:
				return e
			}
		case phptoken.Inc:
			p.next()
			e = &phpast.IncDec{P: t.Pos, Op: "++", X: e}
		case phptoken.Dec:
			p.next()
			e = &phpast.IncDec{P: t.Pos, Op: "--", X: e}
		default:
			return e
		}
	}
}

// nameOf extracts a class name from an expression used before '::'.
func nameOf(e phpast.Expr) string {
	switch x := e.(type) {
	case *phpast.Name:
		return x.Value
	case *phpast.Var:
		return "$" + x.Name
	case *phpast.ConstFetch:
		return x.Name
	default:
		return "?"
	}
}

func (p *Parser) parsePrimary() phpast.Expr {
	t := p.cur()
	switch t.Kind {
	case phptoken.IntLit:
		p.next()
		v := parsePHPInt(t.Value)
		return &phpast.IntLit{P: t.Pos, Value: v}
	case phptoken.FloatLit:
		p.next()
		f, _ := strconv.ParseFloat(t.Value, 64)
		return &phpast.FloatLit{P: t.Pos, Value: f}
	case phptoken.StringLit:
		p.next()
		return &phpast.StringLit{P: t.Pos, Value: t.Value}
	case phptoken.StringInterp:
		p.next()
		return p.buildInterp(t)
	case phptoken.Variable:
		p.next()
		return &phpast.Var{P: t.Pos, Name: t.Value}
	case phptoken.KwTrue:
		p.next()
		return &phpast.BoolLit{P: t.Pos, Value: true}
	case phptoken.KwFalse:
		p.next()
		return &phpast.BoolLit{P: t.Pos, Value: false}
	case phptoken.KwNull:
		p.next()
		return &phpast.NullLit{P: t.Pos}
	case phptoken.KwArray:
		p.next()
		if p.at(phptoken.LParen) {
			return p.parseArrayLit(t.Pos, phptoken.RParen)
		}
		return &phpast.ConstFetch{P: t.Pos, Name: "array"}
	case phptoken.LBracket:
		p.next()
		return p.parseArrayItems(t.Pos, phptoken.RBracket)
	case phptoken.KwList:
		p.next()
		p.expect(phptoken.LParen)
		node := &phpast.ListExpr{P: t.Pos}
		for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
			if p.at(phptoken.Comma) {
				node.Items = append(node.Items, nil)
			} else {
				node.Items = append(node.Items, p.parseExpr())
			}
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.expect(phptoken.RParen)
		return node
	case phptoken.KwIsset:
		p.next()
		p.expect(phptoken.LParen)
		node := &phpast.Isset{P: t.Pos}
		for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
			node.Vars = append(node.Vars, p.parseExpr())
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.expect(phptoken.RParen)
		return node
	case phptoken.KwEmpty:
		p.next()
		p.expect(phptoken.LParen)
		x := p.parseExpr()
		p.expect(phptoken.RParen)
		return &phpast.Empty{P: t.Pos, X: x}
	case phptoken.KwFunction:
		return p.parseClosure()
	case phptoken.KwStatic:
		// static function() {...} (static closure) or static::...
		if p.peek(1).Kind == phptoken.KwFunction {
			p.next()
			return p.parseClosure()
		}
		p.next()
		return &phpast.Name{P: t.Pos, Value: "static"}
	case phptoken.LParen:
		p.next()
		e := p.parseExpr()
		p.expect(phptoken.RParen)
		return e
	case phptoken.Ident, phptoken.Bslash:
		name := p.parseQualifiedName()
		return &phpast.Name{P: t.Pos, Value: name}
	case phptoken.KwClass:
		// ::class handled in postfix; bare "class" here is an error.
		p.next()
		return &phpast.Name{P: t.Pos, Value: "class"}
	case phptoken.Amp:
		// Stray & (by-ref in foreach/args handled elsewhere); treat as
		// transparent.
		p.next()
		return p.parseUnary()
	default:
		p.errorf("unexpected token %v in expression", t.Kind)
		// Do not consume statement terminators: leaving them in place lets
		// the statement parser resynchronize without losing the next
		// statement.
		switch t.Kind {
		case phptoken.Semicolon, phptoken.RBrace, phptoken.RParen,
			phptoken.RBracket, phptoken.CloseTag, phptoken.EOF:
		default:
			p.next()
		}
		return &phpast.NullLit{P: t.Pos}
	}
}

// parseArrayLit parses array( items ) after the "array" keyword, with the
// opening delimiter still pending.
func (p *Parser) parseArrayLit(pos phptoken.Pos, close phptoken.Kind) phpast.Expr {
	p.next() // consume opening ( — caller verified
	return p.parseArrayItems(pos, close)
}

// parseArrayItems parses the comma-separated item list up to close, which
// is consumed.
func (p *Parser) parseArrayItems(pos phptoken.Pos, close phptoken.Kind) phpast.Expr {
	node := &phpast.ArrayLit{P: pos}
	for !p.at(close) && !p.at(phptoken.EOF) {
		var item phpast.ArrayItem
		if p.accept(phptoken.Amp) {
			item.ByRef = true
		}
		first := p.parseExpr()
		if p.accept(phptoken.DArrow) {
			item.Key = first
			if p.accept(phptoken.Amp) {
				item.ByRef = true
			}
			item.Value = p.parseExpr()
		} else {
			item.Value = first
		}
		node.Items = append(node.Items, item)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(close)
	return node
}

func (p *Parser) parseClosure() phpast.Expr {
	t := p.expect(phptoken.KwFunction)
	p.accept(phptoken.Amp)
	params := p.parseParams()
	node := &phpast.Closure{P: t.Pos, Params: params}
	if p.at(phptoken.KwUse) {
		p.next()
		p.expect(phptoken.LParen)
		for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
			byRef := p.accept(phptoken.Amp)
			v := p.expect(phptoken.Variable)
			node.Uses = append(node.Uses, phpast.ClosureUse{Name: v.Value, ByRef: byRef})
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.expect(phptoken.RParen)
	}
	node.Body = p.parseBraced()
	return node
}

// buildInterp converts a StringInterp token into an InterpString AST node
// by splitting the raw body and parsing complex segments.
func (p *Parser) buildInterp(t phptoken.Token) phpast.Expr {
	segs := phplex.SplitInterp(t.Value)
	node := &phpast.InterpString{P: t.Pos}
	for _, s := range segs {
		switch s.Kind {
		case phplex.SegText:
			node.Parts = append(node.Parts, &phpast.StringLit{P: t.Pos, Value: s.Text})
		case phplex.SegVar:
			node.Parts = append(node.Parts, &phpast.Var{P: t.Pos, Name: s.Name})
		case phplex.SegVarIndex:
			var idx phpast.Expr
			if iv, err := strconv.ParseInt(s.Index, 10, 64); err == nil {
				idx = &phpast.IntLit{P: t.Pos, Value: iv}
			} else if strings.HasPrefix(s.Index, "$") {
				idx = &phpast.Var{P: t.Pos, Name: s.Index[1:]}
			} else {
				idx = &phpast.StringLit{P: t.Pos, Value: s.Index}
			}
			node.Parts = append(node.Parts, &phpast.ArrayDim{
				P:     t.Pos,
				Arr:   &phpast.Var{P: t.Pos, Name: s.Name},
				Index: idx,
			})
		case phplex.SegVarProp:
			node.Parts = append(node.Parts, &phpast.PropFetch{
				P:    t.Pos,
				Obj:  &phpast.Var{P: t.Pos, Name: s.Name},
				Prop: s.Prop,
			})
		case phplex.SegExpr:
			inner, errs := ParseExpr(p.file, s.Text)
			p.errs = append(p.errs, errs...)
			if inner != nil {
				node.Parts = append(node.Parts, inner)
			}
		}
	}
	if len(node.Parts) == 1 {
		if lit, ok := node.Parts[0].(*phpast.StringLit); ok {
			return lit
		}
	}
	return node
}

// parsePHPInt parses PHP integer literal spellings (decimal, hex, octal,
// binary). Overflow saturates, mirroring PHP's float fallback coarsely.
func parsePHPInt(s string) int64 {
	base := 10
	digits := s
	switch {
	case strings.HasPrefix(s, "0x"), strings.HasPrefix(s, "0X"):
		base, digits = 16, s[2:]
	case strings.HasPrefix(s, "0b"), strings.HasPrefix(s, "0B"):
		base, digits = 2, s[2:]
	case len(s) > 1 && s[0] == '0':
		base, digits = 8, s[1:]
	}
	v, err := strconv.ParseInt(digits, base, 64)
	if err != nil {
		// Octal parse of something like "09" (PHP error); fall back to decimal.
		if v2, err2 := strconv.ParseInt(s, 10, 64); err2 == nil {
			return v2
		}
		return 0
	}
	return v
}
