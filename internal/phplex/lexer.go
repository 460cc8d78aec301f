// Package phplex implements a lexer for the PHP dialect accepted by this
// repository. It tokenizes mixed HTML/PHP sources, handling the <?php / ?>
// mode switches, all three string forms (single-quoted, double-quoted,
// heredoc/nowdoc), comments, and PHP's case-insensitive keywords.
package phplex

import (
	"fmt"
	"strings"

	"repro/internal/phptoken"
)

// Lexer scans a single PHP source file into tokens. Create one with New and
// call Next until it returns a token with Kind == phptoken.EOF.
type Lexer struct {
	src  string
	file string

	off  int // current byte offset
	line int
	col  int

	inPHP bool // false: scanning inline HTML

	errs []error
}

// New returns a Lexer for src. file is used in error messages only.
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// Errors returns lexical errors accumulated so far. Lexing continues after
// errors: the offending byte is skipped.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(p phptoken.Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s:%s: %s", l.file, p, fmt.Sprintf(format, args...)))
}

func (l *Lexer) pos() phptoken.Pos {
	return phptoken.Pos{Line: l.line, Col: l.col}
}

func (l *Lexer) eof() bool { return l.off >= len(l.src) }

func (l *Lexer) peek() byte {
	if l.eof() {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) advanceN(n int) {
	for i := 0; i < n && !l.eof(); i++ {
		l.advance()
	}
}

// hasPrefixFold reports whether the source at the current offset matches s
// case-insensitively.
func (l *Lexer) hasPrefixFold(s string) bool {
	if l.off+len(s) > len(l.src) {
		return false
	}
	return strings.EqualFold(l.src[l.off:l.off+len(s)], s)
}

// Next returns the next token. After the end of input it returns EOF tokens
// forever.
func (l *Lexer) Next() phptoken.Token {
	if !l.inPHP {
		return l.scanHTML()
	}
	return l.scanPHP()
}

func (l *Lexer) scanHTML() phptoken.Token {
	start := l.pos()
	if l.eof() {
		return phptoken.Token{Kind: phptoken.EOF, Pos: start}
	}
	var sb strings.Builder
	for !l.eof() {
		if l.peek() == '<' && l.peekAt(1) == '?' {
			break
		}
		sb.WriteByte(l.advance())
	}
	if sb.Len() > 0 {
		return phptoken.Token{Kind: phptoken.InlineHTML, Value: sb.String(), Pos: start}
	}
	// At "<?".
	open := l.pos()
	if l.hasPrefixFold("<?php") {
		l.advanceN(5)
		l.inPHP = true
		return phptoken.Token{Kind: phptoken.OpenTag, Pos: open}
	}
	if strings.HasPrefix(l.src[l.off:], "<?=") {
		l.advanceN(3)
		l.inPHP = true
		return phptoken.Token{Kind: phptoken.OpenEcho, Pos: open}
	}
	// Short open tag "<?".
	l.advanceN(2)
	l.inPHP = true
	return phptoken.Token{Kind: phptoken.OpenTag, Pos: open}
}

func (l *Lexer) scanPHP() phptoken.Token {
	l.skipSpaceAndComments()
	start := l.pos()
	if l.eof() {
		return phptoken.Token{Kind: phptoken.EOF, Pos: start}
	}
	c := l.peek()
	switch {
	case c == '?' && l.peekAt(1) == '>':
		l.advanceN(2)
		l.inPHP = false
		// PHP swallows one newline immediately after ?>.
		if l.peek() == '\n' {
			l.advance()
		}
		return phptoken.Token{Kind: phptoken.CloseTag, Pos: start}
	case c == '$' && isIdentStart(l.peekAt(1)):
		l.advance()
		name := l.scanIdentText()
		return phptoken.Token{Kind: phptoken.Variable, Value: name, Pos: start}
	case c == '$':
		l.advance()
		return phptoken.Token{Kind: phptoken.Dollar, Pos: start}
	case isIdentStart(c):
		name := l.scanIdentText()
		kind := phptoken.Lookup(strings.ToLower(name))
		if kind == phptoken.Ident {
			return phptoken.Token{Kind: phptoken.Ident, Value: name, Pos: start}
		}
		return phptoken.Token{Kind: kind, Value: name, Pos: start}
	case c >= '0' && c <= '9':
		return l.scanNumber(start)
	case c == '.' && isDigit(l.peekAt(1)):
		return l.scanNumber(start)
	case c == '\'':
		return l.scanSingleQuoted(start)
	case c == '"':
		return l.scanDoubleQuoted(start)
	case c == '`':
		// Shell-exec string: lex like a double-quoted string; the parser
		// treats it as an opaque literal.
		return l.scanBacktick(start)
	case c == '<' && l.peekAt(1) == '<' && l.peekAt(2) == '<':
		return l.scanHeredoc(start)
	default:
		return l.scanOperator(start)
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for !l.eof() {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			l.skipLineComment()
		case c == '#':
			l.skipLineComment()
		case c == '/' && l.peekAt(1) == '*':
			l.skipBlockComment()
		default:
			return
		}
	}
}

// skipLineComment consumes a // or # comment. Per PHP, a line comment ends
// at a newline or at a closing ?> tag (which is not consumed).
func (l *Lexer) skipLineComment() {
	for !l.eof() {
		if l.peek() == '\n' {
			l.advance()
			return
		}
		if l.peek() == '?' && l.peekAt(1) == '>' {
			return
		}
		l.advance()
	}
}

func (l *Lexer) skipBlockComment() {
	p := l.pos()
	l.advanceN(2)
	for !l.eof() {
		if l.peek() == '*' && l.peekAt(1) == '/' {
			l.advanceN(2)
			return
		}
		l.advance()
	}
	l.errorf(p, "unterminated block comment")
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *Lexer) scanIdentText() string {
	start := l.off
	for !l.eof() && isIdentPart(l.peek()) {
		l.advance()
	}
	return l.src[start:l.off]
}

func (l *Lexer) scanNumber(start phptoken.Pos) phptoken.Token {
	begin := l.off
	kind := phptoken.IntLit
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advanceN(2)
		for !l.eof() && (isHexDigit(l.peek()) || l.peek() == '_') {
			l.advance()
		}
		return phptoken.Token{Kind: kind, Value: l.src[begin:l.off], Pos: start}
	}
	if l.peek() == '0' && (l.peekAt(1) == 'b' || l.peekAt(1) == 'B') {
		l.advanceN(2)
		for !l.eof() && (l.peek() == '0' || l.peek() == '1' || l.peek() == '_') {
			l.advance()
		}
		return phptoken.Token{Kind: kind, Value: l.src[begin:l.off], Pos: start}
	}
	for !l.eof() && (isDigit(l.peek()) || l.peek() == '_') {
		l.advance()
	}
	if l.peek() == '.' && isDigit(l.peekAt(1)) {
		kind = phptoken.FloatLit
		l.advance()
		for !l.eof() && (isDigit(l.peek()) || l.peek() == '_') {
			l.advance()
		}
	}
	if c := l.peek(); c == 'e' || c == 'E' {
		next := l.peekAt(1)
		if isDigit(next) || ((next == '+' || next == '-') && isDigit(l.peekAt(2))) {
			kind = phptoken.FloatLit
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			for !l.eof() && isDigit(l.peek()) {
				l.advance()
			}
		}
	}
	return phptoken.Token{Kind: kind, Value: strings.ReplaceAll(l.src[begin:l.off], "_", ""), Pos: start}
}

func (l *Lexer) scanSingleQuoted(start phptoken.Pos) phptoken.Token {
	l.advance() // consume '
	var sb strings.Builder
	for {
		if l.eof() {
			l.errorf(start, "unterminated string literal")
			break
		}
		c := l.advance()
		if c == '\'' {
			break
		}
		if c == '\\' {
			switch l.peek() {
			case '\'':
				sb.WriteByte('\'')
				l.advance()
			case '\\':
				sb.WriteByte('\\')
				l.advance()
			default:
				sb.WriteByte('\\')
			}
			continue
		}
		sb.WriteByte(c)
	}
	return phptoken.Token{Kind: phptoken.StringLit, Value: sb.String(), Pos: start}
}

func (l *Lexer) scanDoubleQuoted(start phptoken.Pos) phptoken.Token {
	l.advance() // consume "
	begin := l.off
	interp := false
	for {
		if l.eof() {
			l.errorf(start, "unterminated string literal")
			break
		}
		c := l.peek()
		if c == '"' {
			break
		}
		if c == '\\' {
			l.advance()
			if !l.eof() {
				l.advance()
			}
			continue
		}
		if c == '$' && (isIdentStart(l.peekAt(1)) || l.peekAt(1) == '{') {
			interp = true
		}
		if c == '{' && l.peekAt(1) == '$' {
			interp = true
		}
		l.advance()
	}
	raw := l.src[begin:l.off]
	if !l.eof() {
		l.advance() // consume closing "
	}
	if interp {
		return phptoken.Token{Kind: phptoken.StringInterp, Value: raw, Pos: start}
	}
	return phptoken.Token{Kind: phptoken.StringLit, Value: DecodeEscapes(raw), Pos: start}
}

func (l *Lexer) scanBacktick(start phptoken.Pos) phptoken.Token {
	l.advance() // consume `
	begin := l.off
	for !l.eof() && l.peek() != '`' {
		if l.peek() == '\\' {
			l.advance()
		}
		if !l.eof() {
			l.advance()
		}
	}
	raw := l.src[begin:l.off]
	if !l.eof() {
		l.advance()
	}
	return phptoken.Token{Kind: phptoken.StringLit, Value: DecodeEscapes(raw), Pos: start}
}

func (l *Lexer) scanHeredoc(start phptoken.Pos) phptoken.Token {
	l.advanceN(3) // <<<
	for l.peek() == ' ' || l.peek() == '\t' {
		l.advance()
	}
	nowdoc := false
	quoted := false
	switch l.peek() {
	case '\'':
		nowdoc = true
		l.advance()
	case '"':
		quoted = true
		l.advance()
	}
	label := l.scanIdentText()
	if label == "" {
		l.errorf(start, "missing heredoc label")
	}
	if nowdoc || quoted {
		if l.peek() == '\'' || l.peek() == '"' {
			l.advance()
		}
	}
	// Skip to end of line.
	for !l.eof() && l.peek() != '\n' {
		l.advance()
	}
	if !l.eof() {
		l.advance()
	}
	var body strings.Builder
	for {
		if l.eof() {
			l.errorf(start, "unterminated heredoc %q", label)
			break
		}
		// Check for terminator at start of line (allowing leading whitespace
		// per PHP 7.3+ flexible heredoc).
		save := l.off
		for l.peek() == ' ' || l.peek() == '\t' {
			l.advance()
		}
		if strings.HasPrefix(l.src[l.off:], label) {
			after := l.off + len(label)
			if after >= len(l.src) || !isIdentPart(l.src[after]) {
				l.advanceN(len(label))
				bodyStr := strings.TrimSuffix(body.String(), "\n")
				if nowdoc {
					return phptoken.Token{Kind: phptoken.StringLit, Value: bodyStr, Pos: start}
				}
				if strings.ContainsAny(bodyStr, "$") {
					return phptoken.Token{Kind: phptoken.StringInterp, Value: bodyStr, Pos: start}
				}
				return phptoken.Token{Kind: phptoken.StringLit, Value: DecodeEscapes(bodyStr), Pos: start}
			}
		}
		// Not a terminator: restore and consume the line into the body.
		l.restore(save)
		for !l.eof() {
			c := l.advance()
			body.WriteByte(c)
			if c == '\n' {
				break
			}
		}
	}
	return phptoken.Token{Kind: phptoken.StringLit, Value: body.String(), Pos: start}
}

// restore rewinds the lexer to a previous offset. Only valid for offsets on
// the current line scan (it recomputes line/col from scratch for safety).
func (l *Lexer) restore(off int) {
	if off == l.off {
		return
	}
	// Recompute line/col by scanning backward; offsets are always within the
	// current heredoc line so this is cheap.
	for l.off > off {
		l.off--
		if l.src[l.off] == '\n' {
			l.line--
		}
	}
	// Recompute column.
	col := 1
	for i := l.off - 1; i >= 0 && l.src[i] != '\n'; i-- {
		col++
	}
	l.col = col
}

// operator is one multi-character operator spelling and its kind.
type operator struct {
	s string
	k phptoken.Kind
}

// Operator tables for scanOperator's longest match, by length.
var (
	threeCharOps = [...]operator{
		{"===", phptoken.Identical}, {"!==", phptoken.NotIdent},
		{"<=>", phptoken.Spaceship}, {"**=", phptoken.PowAssign},
		{"??=", phptoken.CoalAssign}, {"<<=", phptoken.ShlAssign},
		{">>=", phptoken.ShrAssign},
	}
	twoCharOps = [...]operator{
		{"==", phptoken.Eq}, {"!=", phptoken.NotEq}, {"<>", phptoken.NotEq},
		{"<=", phptoken.LtEq}, {">=", phptoken.GtEq},
		{"&&", phptoken.BoolAnd}, {"||", phptoken.BoolOr},
		{"++", phptoken.Inc}, {"--", phptoken.Dec},
		{"+=", phptoken.PlusAssign}, {"-=", phptoken.MinusAssign},
		{"*=", phptoken.MulAssign}, {"/=", phptoken.DivAssign},
		{"%=", phptoken.ModAssign}, {".=", phptoken.ConcatAssign},
		{"&=", phptoken.AndAssign}, {"|=", phptoken.OrAssign},
		{"^=", phptoken.XorAssign},
		{"**", phptoken.Pow}, {"??", phptoken.Coal},
		{"->", phptoken.Arrow}, {"=>", phptoken.DArrow},
		{"::", phptoken.Scope}, {"<<", phptoken.Shl}, {">>", phptoken.Shr},
	}
	// oneCharOps maps a byte to its one-character operator; Invalid (the
	// zero Kind) marks bytes that are not one.
	oneCharOps = [256]phptoken.Kind{
		';': phptoken.Semicolon, ',': phptoken.Comma,
		'(': phptoken.LParen, ')': phptoken.RParen,
		'{': phptoken.LBrace, '}': phptoken.RBrace,
		'[': phptoken.LBracket, ']': phptoken.RBracket,
		'=': phptoken.Assign, '+': phptoken.Plus, '-': phptoken.Minus,
		'*': phptoken.Mul, '/': phptoken.Div, '%': phptoken.Mod,
		'.': phptoken.Concat, '<': phptoken.Lt, '>': phptoken.Gt,
		'!': phptoken.Not, '&': phptoken.Amp, '|': phptoken.Pipe,
		'^': phptoken.Caret, '~': phptoken.Tilde, '?': phptoken.Quest,
		':': phptoken.Colon, '@': phptoken.At, '\\': phptoken.Bslash,
	}
)

// opsByFirstByte lists, for each byte, the three-character and then the
// two-character operators that start with it, each group in table order,
// so scanOperator tries the same candidates in the same order as a scan
// of both tables would.
var opsByFirstByte = func() (t [256][]operator) {
	for _, op := range threeCharOps {
		t[op.s[0]] = append(t[op.s[0]], op)
	}
	for _, op := range twoCharOps {
		t[op.s[0]] = append(t[op.s[0]], op)
	}
	return t
}()

func (l *Lexer) scanOperator(start phptoken.Pos) phptoken.Token {
	c := l.peek()
	for _, op := range opsByFirstByte[c] {
		if strings.HasPrefix(l.src[l.off:], op.s) {
			l.advanceN(len(op.s))
			return phptoken.Token{Kind: op.k, Pos: start}
		}
	}
	if k := oneCharOps[c]; k != phptoken.Invalid {
		l.advance()
		return phptoken.Token{Kind: k, Pos: start}
	}
	l.errorf(start, "unexpected character %q", c)
	l.advance()
	return phptoken.Token{Kind: phptoken.Invalid, Value: string(c), Pos: start}
}

// DecodeEscapes decodes double-quoted-string escape sequences in raw. It
// implements PHP's escape set: \n \t \r \v \f \e \\ \$ \" \xHH \NNN (octal)
// and \u{...}. Unknown escapes are kept verbatim (backslash included), as
// PHP does.
func DecodeEscapes(raw string) string {
	if !strings.Contains(raw, "\\") {
		return raw
	}
	var sb strings.Builder
	sb.Grow(len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' || i+1 >= len(raw) {
			sb.WriteByte(c)
			continue
		}
		i++
		switch raw[i] {
		case 'n':
			sb.WriteByte('\n')
		case 't':
			sb.WriteByte('\t')
		case 'r':
			sb.WriteByte('\r')
		case 'v':
			sb.WriteByte('\v')
		case 'f':
			sb.WriteByte('\f')
		case 'e':
			sb.WriteByte(0x1b)
		case '\\':
			sb.WriteByte('\\')
		case '$':
			sb.WriteByte('$')
		case '"':
			sb.WriteByte('"')
		case 'x':
			j := i + 1
			v := 0
			n := 0
			for j < len(raw) && n < 2 && isHexDigit(raw[j]) {
				v = v*16 + hexVal(raw[j])
				j++
				n++
			}
			if n == 0 {
				sb.WriteString("\\x")
			} else {
				sb.WriteByte(byte(v))
				i = j - 1
			}
		case '0', '1', '2', '3', '4', '5', '6', '7':
			j := i
			v := 0
			n := 0
			for j < len(raw) && n < 3 && raw[j] >= '0' && raw[j] <= '7' {
				v = v*8 + int(raw[j]-'0')
				j++
				n++
			}
			sb.WriteByte(byte(v))
			i = j - 1
		case 'u':
			// \u{H...} codepoint escape (PHP 7+). PHP raises a compile
			// error for empty braces and for codepoints beyond U+10FFFF;
			// a lexer cannot abort, so invalid sequences keep their
			// literal text instead of silently becoming U+0000 (empty
			// braces) or U+FFFD (rune(v) of an overflowed accumulator —
			// a long digit run used to wrap the int).
			if i+1 < len(raw) && raw[i+1] == '{' {
				j := i + 2
				v := 0
				n := 0
				for j < len(raw) && isHexDigit(raw[j]) {
					v = v*16 + hexVal(raw[j])
					if v > 0x10FFFF {
						// Saturate above the Unicode range: the value
						// stays invalid and the accumulator cannot
						// overflow no matter how many digits follow.
						v = 0x110000
					}
					j++
					n++
				}
				valid := j < len(raw) && raw[j] == '}' && n > 0 &&
					v <= 0x10FFFF && (v < 0xD800 || v > 0xDFFF)
				if valid {
					sb.WriteRune(rune(v))
					i = j
					continue
				}
			}
			sb.WriteString("\\u")
		default:
			sb.WriteByte('\\')
			sb.WriteByte(raw[i])
		}
	}
	return sb.String()
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}
