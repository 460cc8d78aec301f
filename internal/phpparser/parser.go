// Package phpparser implements a recursive-descent parser producing
// phpast trees from PHP source.
//
// The accepted dialect covers the core syntax of Table I of the UChecker
// paper plus everything the paper's listings and the evaluation corpus use:
// functions, conditionals (including elseif chains and the alternative
// colon syntax), loops, switch, echo/print, include/require, classes with
// methods, closures, array literals in both spellings, string
// interpolation, isset/empty/unset, casts, and error suppression.
//
// Parsing is tolerant: syntax errors are recorded and the parser
// resynchronizes at the next statement boundary, so one malformed construct
// does not hide an entire plugin from analysis.
package phpparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/phpast"
	"repro/internal/phplex"
	"repro/internal/phptoken"
)

// Parser parses one PHP file. It pulls tokens from the lexer as it
// needs them into a three-token window: it never looks more than two
// tokens past the current one.
type Parser struct {
	file string
	lex  *phplex.Lexer
	win  [3]phptoken.Token // win[0] is the current token
	n    int               // tokens buffered in win, at least 1
	pos  int               // tokens consumed so far
	// lastLine is the line of the last consumed token, 0 before the
	// first; declarations record it as their EndLine.
	lastLine int
	errs     []error
	// stmts, exprs and params are scratch stacks. A list is gathered on
	// top of its stack, above the lists that enclose it, and pop copies
	// it out at its final length.
	stmts  []phpast.Stmt
	exprs  []phpast.Expr
	params []phpast.Param
}

// pop returns the elements of *stack from mark on, in a new slice whose
// capacity is its length (nil when there are none), and truncates the
// stack back to mark.
func pop[T any](stack *[]T, mark int) []T {
	s := *stack
	*stack = s[:mark]
	if len(s) == mark {
		return nil
	}
	out := make([]T, len(s)-mark)
	copy(out, s[mark:])
	return out
}

// pushStmt gathers s, unless it is nil, onto the statement stack.
func (p *Parser) pushStmt(s phpast.Stmt) {
	if s != nil {
		p.stmts = append(p.stmts, s)
	}
}

// newParser returns a parser over src with the first token buffered.
func newParser(file, src string) *Parser {
	lex := phplex.New(file, src)
	return &Parser{file: file, lex: lex, win: [3]phptoken.Token{lex.Next()}, n: 1}
}

// errors returns every lexical error, then every parse error: the lexer
// has reached EOF by the time the parser returns.
func (p *Parser) errors() []error { return append(p.lex.Errors(), p.errs...) }

// Parse parses src as the contents of the named file. It always returns a
// (possibly partial) File; errors describe any malformed regions that were
// skipped.
func Parse(file, src string) (*phpast.File, []error) {
	p := newParser(file, src)
	f := &phpast.File{Name: file}
	for !p.at(phptoken.EOF) {
		s := p.parseTopLevel()
		if s != nil {
			f.Stmts = append(f.Stmts, s)
		}
	}
	return f, p.errors()
}

// ParseExpr parses a standalone PHP expression (no surrounding <?php tag),
// as used for the inner text of complex string interpolation.
func ParseExpr(file, src string) (phpast.Expr, []error) {
	p := newParser(file, "<?php "+src)
	if p.at(phptoken.OpenTag) {
		p.next()
	}
	e := p.parseExpr()
	// Lex what follows the expression too, so its lexical errors are
	// reported.
	for p.lex.Next().Kind != phptoken.EOF {
	}
	return e, p.errors()
}

// --- token plumbing ---

func (p *Parser) cur() phptoken.Token { return p.win[0] }

func (p *Parser) at(k phptoken.Kind) bool { return p.cur().Kind == k }

func (p *Parser) atAny(ks ...phptoken.Kind) bool {
	for _, k := range ks {
		if p.cur().Kind == k {
			return true
		}
	}
	return false
}

// peek returns the token n places past the current one, n <= 2. Past
// the end of input it is the EOF token, which the lexer repeats.
func (p *Parser) peek(n int) phptoken.Token {
	for ; p.n <= n; p.n++ {
		p.win[p.n] = p.lex.Next()
	}
	return p.win[n]
}

// next consumes and returns the current token; EOF is never consumed.
func (p *Parser) next() phptoken.Token {
	t := p.win[0]
	if t.Kind == phptoken.EOF {
		return t
	}
	p.pos++
	p.lastLine = t.Pos.Line
	if p.n == 1 {
		p.win[0] = p.lex.Next()
	} else {
		copy(p.win[:], p.win[1:p.n])
		p.n--
	}
	return t
}

func (p *Parser) expect(k phptoken.Kind) phptoken.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %v, found %v", k, p.cur().Kind)
	return phptoken.Token{Kind: k, Pos: p.cur().Pos}
}

// accept consumes and returns true if the current token has kind k.
func (p *Parser) accept(k phptoken.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) errorf(format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s:%s: %s", p.file, p.cur().Pos, fmt.Sprintf(format, args...)))
}

// atIdent reports whether the current token is an identifier with the given
// lower-case spelling (PHP identifiers in statement positions like "endif"
// are context keywords).
func (p *Parser) atIdent(lower string) bool {
	return p.at(phptoken.Ident) && strings.EqualFold(p.cur().Value, lower)
}

// sync skips tokens until a statement boundary to recover from errors.
func (p *Parser) sync() {
	for !p.at(phptoken.EOF) {
		k := p.cur().Kind
		if k == phptoken.Semicolon || k == phptoken.RBrace || k == phptoken.CloseTag {
			p.next()
			return
		}
		p.next()
	}
}

// --- statements ---

func (p *Parser) parseTopLevel() phpast.Stmt {
	switch p.cur().Kind {
	case phptoken.InlineHTML:
		t := p.next()
		return &phpast.InlineHTML{P: t.Pos, Text: t.Value}
	case phptoken.OpenTag:
		p.next()
		return nil
	case phptoken.OpenEcho:
		t := p.next()
		args := []phpast.Expr{p.parseExpr()}
		for p.accept(phptoken.Comma) {
			args = append(args, p.parseExpr())
		}
		p.accept(phptoken.Semicolon)
		return &phpast.Echo{P: t.Pos, Args: args}
	case phptoken.CloseTag:
		p.next()
		return nil
	default:
		return p.parseStmt()
	}
}

func (p *Parser) parseStmt() phpast.Stmt {
	startPos := p.pos
	defer func() {
		// Guarantee forward progress even on pathological inputs.
		if p.pos == startPos && !p.at(phptoken.EOF) {
			p.next()
		}
	}()

	switch p.cur().Kind {
	case phptoken.Semicolon:
		t := p.next()
		return &phpast.Nop{P: t.Pos}
	case phptoken.InlineHTML:
		t := p.next()
		return &phpast.InlineHTML{P: t.Pos, Text: t.Value}
	case phptoken.OpenTag, phptoken.CloseTag:
		p.next()
		return &phpast.Nop{P: p.cur().Pos}
	case phptoken.OpenEcho:
		t := p.next()
		args := []phpast.Expr{p.parseExpr()}
		p.accept(phptoken.Semicolon)
		return &phpast.Echo{P: t.Pos, Args: args}
	case phptoken.LBrace:
		return p.parseBlock()
	case phptoken.KwIf:
		return p.parseIf()
	case phptoken.KwWhile:
		return p.parseWhile()
	case phptoken.KwDo:
		return p.parseDoWhile()
	case phptoken.KwFor:
		return p.parseFor()
	case phptoken.KwForeach:
		return p.parseForeach()
	case phptoken.KwSwitch:
		return p.parseSwitch()
	case phptoken.KwBreak:
		t := p.next()
		lvl := 0
		if p.at(phptoken.IntLit) {
			lvl, _ = strconv.Atoi(p.next().Value)
		}
		p.stmtEnd()
		return &phpast.Break{P: t.Pos, Level: lvl}
	case phptoken.KwContinue:
		t := p.next()
		lvl := 0
		if p.at(phptoken.IntLit) {
			lvl, _ = strconv.Atoi(p.next().Value)
		}
		p.stmtEnd()
		return &phpast.Continue{P: t.Pos, Level: lvl}
	case phptoken.KwReturn:
		t := p.next()
		var x phpast.Expr
		if !p.atAny(phptoken.Semicolon, phptoken.CloseTag, phptoken.EOF) {
			x = p.parseExpr()
		}
		p.stmtEnd()
		return &phpast.Return{P: t.Pos, X: x}
	case phptoken.KwEcho:
		t := p.next()
		args := []phpast.Expr{p.parseExpr()}
		for p.accept(phptoken.Comma) {
			args = append(args, p.parseExpr())
		}
		p.stmtEnd()
		return &phpast.Echo{P: t.Pos, Args: args}
	case phptoken.KwGlobal:
		t := p.next()
		var names []string
		for {
			if p.at(phptoken.Variable) {
				names = append(names, p.next().Value)
			} else {
				p.errorf("expected variable in global declaration")
				break
			}
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.stmtEnd()
		return &phpast.Global{P: t.Pos, Names: names}
	case phptoken.KwStatic:
		// Could be "static $x = 1;" or "static::method()" expression.
		if p.peek(1).Kind == phptoken.Variable {
			return p.parseStaticVars()
		}
		return p.parseExprStmt()
	case phptoken.KwUnset:
		t := p.next()
		p.expect(phptoken.LParen)
		var vars []phpast.Expr
		for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
			vars = append(vars, p.parseExpr())
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.expect(phptoken.RParen)
		p.stmtEnd()
		return &phpast.Unset{P: t.Pos, Vars: vars}
	case phptoken.KwFunction:
		// Distinguish declaration from closure-expression statement.
		if p.peek(1).Kind == phptoken.Ident || (p.peek(1).Kind == phptoken.Amp && p.peek(2).Kind == phptoken.Ident) {
			return p.parseFuncDecl()
		}
		return p.parseExprStmt()
	case phptoken.KwClass, phptoken.KwInterface:
		return p.parseClassDecl()
	case phptoken.KwAbstract, phptoken.KwFinal:
		p.next()
		if p.at(phptoken.KwClass) {
			return p.parseClassDecl()
		}
		p.errorf("expected class after abstract/final")
		p.sync()
		return nil
	case phptoken.KwTry:
		return p.parseTry()
	case phptoken.KwThrow:
		t := p.next()
		x := p.parseExpr()
		p.stmtEnd()
		return &phpast.Throw{P: t.Pos, X: x}
	case phptoken.KwNamespace:
		// namespace Foo\Bar; — recorded as a Nop; names are flattened.
		t := p.next()
		for !p.atAny(phptoken.Semicolon, phptoken.LBrace, phptoken.EOF) {
			p.next()
		}
		if p.at(phptoken.LBrace) {
			// Braced namespace: parse contents as a block.
			return p.parseBlock()
		}
		p.accept(phptoken.Semicolon)
		return &phpast.Nop{P: t.Pos}
	case phptoken.KwUse:
		// use Foo\Bar (as Baz); — imports are irrelevant to the analysis.
		t := p.next()
		for !p.atAny(phptoken.Semicolon, phptoken.EOF, phptoken.CloseTag) {
			p.next()
		}
		p.accept(phptoken.Semicolon)
		return &phpast.Nop{P: t.Pos}
	case phptoken.KwConst:
		// const NAME = expr; — treat as assignment to a constant name.
		t := p.next()
		name := p.expect(phptoken.Ident).Value
		p.expect(phptoken.Assign)
		val := p.parseExpr()
		p.stmtEnd()
		return &phpast.ExprStmt{P: t.Pos, X: &phpast.Assign{
			P:      t.Pos,
			Target: &phpast.ConstFetch{P: t.Pos, Name: name},
			Value:  val,
		}}
	case phptoken.EOF:
		return nil
	default:
		return p.parseExprStmt()
	}
}

// stmtEnd consumes a statement terminator: ';' or a close tag (which ends
// the statement implicitly in PHP).
func (p *Parser) stmtEnd() {
	if p.accept(phptoken.Semicolon) {
		return
	}
	if p.at(phptoken.CloseTag) || p.at(phptoken.EOF) {
		return
	}
	p.errorf("expected ';', found %v", p.cur().Kind)
	p.sync()
}

func (p *Parser) parseExprStmt() phpast.Stmt {
	t := p.cur()
	x := p.parseExpr()
	p.stmtEnd()
	if x == nil {
		return nil
	}
	return &phpast.ExprStmt{P: t.Pos, X: x}
}

func (p *Parser) parseBlock() *phpast.Block {
	pos := p.cur().Pos
	return &phpast.Block{P: pos, Stmts: p.parseBraced()}
}

// parseBraced parses a braced statement list and returns the statements:
// a function, method or closure body keeps no Block.
func (p *Parser) parseBraced() []phpast.Stmt {
	p.expect(phptoken.LBrace)
	mark := len(p.stmts)
	for !p.at(phptoken.RBrace) && !p.at(phptoken.EOF) {
		p.pushStmt(p.parseStmt())
	}
	p.expect(phptoken.RBrace)
	return pop(&p.stmts, mark)
}

// parseBody parses either a braced block or a single statement, returning a
// Block either way.
func (p *Parser) parseBody() *phpast.Block {
	if p.at(phptoken.LBrace) {
		return p.parseBlock()
	}
	s := p.parseStmt()
	b := &phpast.Block{P: p.cur().Pos}
	if s != nil {
		b.P = s.Pos()
		b.Stmts = []phpast.Stmt{s}
	}
	return b
}

// parseAltBody parses statements until one of the given context-keyword
// identifiers (e.g. "endif") or keyword kinds appears, for the alternative
// colon syntax. The terminator is not consumed.
func (p *Parser) parseAltBody(endIdents ...string) *phpast.Block {
	b := &phpast.Block{P: p.cur().Pos}
	mark := len(p.stmts)
	for !p.at(phptoken.EOF) && !p.atAltEnd(endIdents) {
		p.pushStmt(p.parseStmt())
	}
	b.Stmts = pop(&p.stmts, mark)
	return b
}

// atAltEnd reports whether an alternative-syntax body ends here: at
// else, elseif or one of the given context keywords.
func (p *Parser) atAltEnd(endIdents []string) bool {
	if p.at(phptoken.KwElse) || p.at(phptoken.KwElseif) {
		return true
	}
	for _, id := range endIdents {
		if p.atIdent(id) {
			return true
		}
	}
	return false
}

func (p *Parser) parseIf() phpast.Stmt {
	t := p.expect(phptoken.KwIf)
	p.expect(phptoken.LParen)
	cond := p.parseExpr()
	p.expect(phptoken.RParen)

	if p.accept(phptoken.Colon) {
		// Alternative syntax: if (...): ... elseif: ... else: ... endif;
		then := p.parseAltBody("endif")
		node := &phpast.If{P: t.Pos, Cond: cond, Then: then}
		cur := node
		for {
			if p.at(phptoken.KwElseif) {
				et := p.next()
				p.expect(phptoken.LParen)
				econd := p.parseExpr()
				p.expect(phptoken.RParen)
				p.expect(phptoken.Colon)
				ebody := p.parseAltBody("endif")
				nested := &phpast.If{P: et.Pos, Cond: econd, Then: ebody}
				cur.Else = nested
				cur = nested
				continue
			}
			if p.at(phptoken.KwElse) {
				p.next()
				p.expect(phptoken.Colon)
				cur.Else = p.parseAltBody("endif")
				break
			}
			break
		}
		if p.atIdent("endif") {
			p.next()
		} else {
			p.errorf("expected endif")
		}
		p.stmtEnd()
		return node
	}

	then := p.parseBody()
	node := &phpast.If{P: t.Pos, Cond: cond, Then: then}
	if p.at(phptoken.KwElseif) {
		// Re-enter as a nested if: elseif (c) ... == else { if (c) ... }.
		p.win[0].Kind = phptoken.KwIf
		node.Else = p.parseIf()
		return node
	}
	if p.accept(phptoken.KwElse) {
		if p.at(phptoken.KwIf) {
			node.Else = p.parseIf()
		} else {
			node.Else = p.parseBody()
		}
	}
	return node
}

func (p *Parser) parseWhile() phpast.Stmt {
	t := p.expect(phptoken.KwWhile)
	p.expect(phptoken.LParen)
	cond := p.parseExpr()
	p.expect(phptoken.RParen)
	if p.accept(phptoken.Colon) {
		body := p.parseAltBody("endwhile")
		if p.atIdent("endwhile") {
			p.next()
		}
		p.stmtEnd()
		return &phpast.While{P: t.Pos, Cond: cond, Body: body}
	}
	return &phpast.While{P: t.Pos, Cond: cond, Body: p.parseBody()}
}

func (p *Parser) parseDoWhile() phpast.Stmt {
	t := p.expect(phptoken.KwDo)
	body := p.parseBody()
	p.expect(phptoken.KwWhile)
	p.expect(phptoken.LParen)
	cond := p.parseExpr()
	p.expect(phptoken.RParen)
	p.stmtEnd()
	return &phpast.DoWhile{P: t.Pos, Body: body, Cond: cond}
}

func (p *Parser) parseFor() phpast.Stmt {
	t := p.expect(phptoken.KwFor)
	p.expect(phptoken.LParen)
	var init, cond, post []phpast.Expr
	for !p.at(phptoken.Semicolon) && !p.at(phptoken.EOF) {
		init = append(init, p.parseExpr())
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.Semicolon)
	for !p.at(phptoken.Semicolon) && !p.at(phptoken.EOF) {
		cond = append(cond, p.parseExpr())
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.Semicolon)
	for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
		post = append(post, p.parseExpr())
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.RParen)
	if p.accept(phptoken.Colon) {
		body := p.parseAltBody("endfor")
		if p.atIdent("endfor") {
			p.next()
		}
		p.stmtEnd()
		return &phpast.For{P: t.Pos, Init: init, Cond: cond, Post: post, Body: body}
	}
	return &phpast.For{P: t.Pos, Init: init, Cond: cond, Post: post, Body: p.parseBody()}
}

func (p *Parser) parseForeach() phpast.Stmt {
	t := p.expect(phptoken.KwForeach)
	p.expect(phptoken.LParen)
	arr := p.parseExpr()
	p.expect(phptoken.KwAs)
	byRef := p.accept(phptoken.Amp)
	first := p.parseExpr()
	node := &phpast.Foreach{P: t.Pos, Arr: arr, Val: first, ByRef: byRef}
	if p.accept(phptoken.DArrow) {
		node.Key = first
		node.ByRef = p.accept(phptoken.Amp)
		node.Val = p.parseExpr()
	}
	p.expect(phptoken.RParen)
	if p.accept(phptoken.Colon) {
		node.Body = p.parseAltBody("endforeach")
		if p.atIdent("endforeach") {
			p.next()
		}
		p.stmtEnd()
		return node
	}
	node.Body = p.parseBody()
	return node
}

func (p *Parser) parseSwitch() phpast.Stmt {
	t := p.expect(phptoken.KwSwitch)
	p.expect(phptoken.LParen)
	subj := p.parseExpr()
	p.expect(phptoken.RParen)
	node := &phpast.Switch{P: t.Pos, Subject: subj}
	alt := false
	if p.accept(phptoken.Colon) {
		alt = true
	} else {
		p.expect(phptoken.LBrace)
	}
	done := func() bool {
		if alt {
			return p.atIdent("endswitch") || p.at(phptoken.EOF)
		}
		return p.at(phptoken.RBrace) || p.at(phptoken.EOF)
	}
	caseBody := func() []phpast.Stmt {
		mark := len(p.stmts)
		for !p.at(phptoken.KwCase) && !p.at(phptoken.KwDefault) && !done() {
			p.pushStmt(p.parseStmt())
		}
		return pop(&p.stmts, mark)
	}
	for !done() {
		switch {
		case p.at(phptoken.KwCase):
			ct := p.next()
			cond := p.parseExpr()
			if !p.accept(phptoken.Colon) {
				p.accept(phptoken.Semicolon)
			}
			c := phpast.SwitchCase{P: ct.Pos, Cond: cond}
			c.Stmts = caseBody()
			node.Cases = append(node.Cases, c)
		case p.at(phptoken.KwDefault):
			dt := p.next()
			if !p.accept(phptoken.Colon) {
				p.accept(phptoken.Semicolon)
			}
			c := phpast.SwitchCase{P: dt.Pos}
			c.Stmts = caseBody()
			node.Cases = append(node.Cases, c)
		default:
			p.errorf("expected case or default in switch")
			p.sync()
		}
	}
	if alt {
		if p.atIdent("endswitch") {
			p.next()
		}
		p.stmtEnd()
	} else {
		p.expect(phptoken.RBrace)
	}
	return node
}

func (p *Parser) parseStaticVars() phpast.Stmt {
	t := p.expect(phptoken.KwStatic)
	node := &phpast.StaticVars{P: t.Pos}
	for {
		v := p.expect(phptoken.Variable)
		node.Names = append(node.Names, v.Value)
		var init phpast.Expr
		if p.accept(phptoken.Assign) {
			init = p.parseExpr()
		}
		node.Inits = append(node.Inits, init)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.stmtEnd()
	return node
}

func (p *Parser) parseParams() []phpast.Param {
	p.expect(phptoken.LParen)
	mark := len(p.params)
	for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
		var prm phpast.Param
		prm.P = p.cur().Pos
		// Optional type hint: identifier, array, ?type, or namespaced name.
		p.accept(phptoken.Quest)
		if p.at(phptoken.Ident) || p.at(phptoken.KwArray) || p.at(phptoken.Bslash) {
			var tb strings.Builder
			for p.at(phptoken.Ident) || p.at(phptoken.KwArray) || p.at(phptoken.Bslash) {
				tk := p.next()
				if tk.Kind == phptoken.Bslash {
					tb.WriteByte('\\')
				} else if tk.Kind == phptoken.KwArray {
					tb.WriteString("array")
				} else {
					tb.WriteString(tk.Value)
				}
			}
			prm.Type = strings.ToLower(tb.String())
		}
		if p.accept(phptoken.Amp) {
			prm.ByRef = true
		}
		if p.at(phptoken.Concat) && p.peek(1).Kind == phptoken.Concat {
			// "..." lexes as Concat Concat Concat.
			p.next()
			p.next()
			p.accept(phptoken.Concat)
			prm.Variadic = true
		}
		v := p.expect(phptoken.Variable)
		prm.Name = v.Value
		if p.accept(phptoken.Assign) {
			prm.Default = p.parseExpr()
		}
		p.params = append(p.params, prm)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	params := pop(&p.params, mark)
	p.expect(phptoken.RParen)
	// Optional return type ": ?Foo".
	if p.accept(phptoken.Colon) {
		p.accept(phptoken.Quest)
		for p.at(phptoken.Ident) || p.at(phptoken.KwArray) || p.at(phptoken.Bslash) || p.at(phptoken.KwStatic) || p.at(phptoken.KwNull) {
			p.next()
		}
	}
	return params
}

func (p *Parser) parseFuncDecl() phpast.Stmt {
	t := p.expect(phptoken.KwFunction)
	p.accept(phptoken.Amp) // return-by-reference
	name := p.expect(phptoken.Ident).Value
	params := p.parseParams()
	body := p.parseBraced()
	return &phpast.FuncDecl{P: t.Pos, Name: name, Params: params, Body: body, EndLine: p.lastLine}
}

func (p *Parser) parseClassDecl() phpast.Stmt {
	isInterface := p.at(phptoken.KwInterface)
	t := p.next() // class or interface
	name := p.expect(phptoken.Ident).Value
	node := &phpast.ClassDecl{P: t.Pos, Name: name, Consts: map[string]phpast.Expr{}, IsInterface: isInterface}
	if p.accept(phptoken.KwExtends) {
		node.Parent = p.parseQualifiedName()
	}
	if p.accept(phptoken.KwImplements) {
		for {
			node.Interfaces = append(node.Interfaces, p.parseQualifiedName())
			if !p.accept(phptoken.Comma) {
				break
			}
		}
	}
	p.expect(phptoken.LBrace)
	for !p.at(phptoken.RBrace) && !p.at(phptoken.EOF) {
		p.parseClassMember(node)
	}
	p.expect(phptoken.RBrace)
	node.EndLine = p.lastLine
	return node
}

func (p *Parser) parseQualifiedName() string {
	var sb strings.Builder
	for p.at(phptoken.Bslash) {
		p.next()
	}
	sb.WriteString(p.expect(phptoken.Ident).Value)
	for p.at(phptoken.Bslash) {
		p.next()
		sb.WriteByte('\\')
		sb.WriteString(p.expect(phptoken.Ident).Value)
	}
	return sb.String()
}

func (p *Parser) parseClassMember(cls *phpast.ClassDecl) {
	visibility := ""
	static := false
	for {
		switch p.cur().Kind {
		case phptoken.KwPublic:
			visibility = "public"
			p.next()
			continue
		case phptoken.KwPrivate:
			visibility = "private"
			p.next()
			continue
		case phptoken.KwProtected:
			visibility = "protected"
			p.next()
			continue
		case phptoken.KwStatic:
			static = true
			p.next()
			continue
		case phptoken.KwAbstract, phptoken.KwFinal, phptoken.KwVar:
			p.next()
			continue
		}
		break
	}
	switch p.cur().Kind {
	case phptoken.KwFunction:
		t := p.next()
		p.accept(phptoken.Amp)
		name := p.cur().Value
		// Method names may collide with keywords (e.g. "list", "print").
		p.next()
		params := p.parseParams()
		m := &phpast.ClassMethod{P: t.Pos, Name: name, Params: params, Static: static, Visibility: visibility}
		if p.at(phptoken.LBrace) {
			m.Body = p.parseBraced()
		} else {
			p.stmtEnd() // abstract or interface method
		}
		m.EndLine = p.lastLine
		cls.Methods = append(cls.Methods, m)
	case phptoken.KwConst:
		p.next()
		for {
			cname := p.expect(phptoken.Ident).Value
			p.expect(phptoken.Assign)
			cls.Consts[cname] = p.parseExpr()
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.stmtEnd()
	case phptoken.Variable:
		for {
			v := p.next()
			prop := &phpast.PropertyDecl{P: v.Pos, Name: v.Value, Static: static}
			if p.accept(phptoken.Assign) {
				prop.Default = p.parseExpr()
			}
			cls.Props = append(cls.Props, prop)
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.stmtEnd()
	default:
		// Possibly a typed property "string $x;" — skip type then retry once.
		if p.at(phptoken.Ident) || p.at(phptoken.Quest) || p.at(phptoken.KwArray) {
			p.next()
			if p.at(phptoken.Variable) {
				p.parseClassMember(cls)
				return
			}
		}
		p.errorf("unexpected token %v in class body", p.cur().Kind)
		p.sync()
	}
}

func (p *Parser) parseTry() phpast.Stmt {
	t := p.expect(phptoken.KwTry)
	node := &phpast.Try{P: t.Pos, Body: p.parseBlock()}
	for p.at(phptoken.KwCatch) {
		ct := p.next()
		p.expect(phptoken.LParen)
		c := phpast.Catch{P: ct.Pos}
		for {
			c.Types = append(c.Types, p.parseQualifiedName())
			if !p.accept(phptoken.Pipe) {
				break
			}
		}
		if p.at(phptoken.Variable) {
			c.Var = p.next().Value
		}
		p.expect(phptoken.RParen)
		c.Body = p.parseBlock()
		node.Catches = append(node.Catches, c)
	}
	if p.accept(phptoken.KwFinally) {
		node.Finally = p.parseBlock()
	}
	return node
}
