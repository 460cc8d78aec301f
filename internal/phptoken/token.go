// Package phptoken defines the lexical tokens of the PHP dialect understood
// by this repository's parser, together with source positions.
//
// The token set covers the core syntax of Table I of the UChecker paper
// (constants, variables, unary/binary operations, array access, function
// definition and call, sequencing, assignment, conditionals, return) plus
// the surrounding constructs that real WordPress/Joomla/Drupal plugins use:
// loops, switch, echo, include/require, classes (lightly), string
// interpolation, and superglobals.
package phptoken

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. The zero value is Invalid so that an uninitialized token is
// never mistaken for a meaningful one.
const (
	Invalid Kind = iota
	EOF
	InlineHTML // raw text outside <?php ... ?>
	OpenTag    // <?php
	OpenEcho   // <?=
	CloseTag   // ?>

	Ident        // function and class names, keywords are separate kinds
	Variable     // $name (value excludes the '$')
	IntLit       // 123, 0x1f, 0o17, 0b101
	FloatLit     // 1.5, 1e3
	StringLit    // single- or double-quoted string with no interpolation; value is decoded
	StringInterp // double-quoted or heredoc string containing interpolation; value is raw body

	// Punctuation and operators.
	Semicolon // ;
	Comma     // ,
	LParen    // (
	RParen    // )
	LBrace    // {
	RBrace    // }
	LBracket  // [
	RBracket  // ]

	Assign       // =
	PlusAssign   // +=
	MinusAssign  // -=
	MulAssign    // *=
	DivAssign    // /=
	ModAssign    // %=
	ConcatAssign // .=
	PowAssign    // **=
	CoalAssign   // ??=
	AndAssign    // &=
	OrAssign     // |=
	XorAssign    // ^=
	ShlAssign    // <<=
	ShrAssign    // >>=

	Plus   // +
	Minus  // -
	Mul    // *
	Div    // /
	Mod    // %
	Pow    // **
	Concat // .

	Inc // ++
	Dec // --

	Eq        // ==
	NotEq     // !=
	Identical // ===
	NotIdent  // !==
	Lt        // <
	Gt        // >
	LtEq      // <=
	GtEq      // >=
	Spaceship // <=>

	BoolAnd // &&
	BoolOr  // ||
	Not     // !
	AndKw   // and
	OrKw    // or
	XorKw   // xor

	Amp    // &
	Pipe   // |
	Caret  // ^
	Tilde  // ~
	Shl    // <<
	Shr    // >>
	Coal   // ??
	Quest  // ?
	Colon  // :
	Arrow  // ->
	DArrow // =>
	Scope  // ::
	At     // @
	Dollar // $ (rare: variable variables, not supported but lexed)
	Bslash // \

	// Keywords.
	KwFunction
	KwReturn
	KwIf
	KwElse
	KwElseif
	KwWhile
	KwDo
	KwFor
	KwForeach
	KwAs
	KwSwitch
	KwCase
	KwDefault
	KwBreak
	KwContinue
	KwEcho
	KwPrint
	KwGlobal
	KwStatic
	KwInclude
	KwIncludeOnce
	KwRequire
	KwRequireOnce
	KwTrue
	KwFalse
	KwNull
	KwArray
	KwList
	KwIsset
	KwEmpty
	KwUnset
	KwNew
	KwClass
	KwExtends
	KwImplements
	KwPublic
	KwPrivate
	KwProtected
	KwVar
	KwConst
	KwInstanceof
	KwTry
	KwCatch
	KwFinally
	KwThrow
	KwNamespace
	KwUse
	KwInterface
	KwAbstract
	KwFinal
	KwExit // exit / die

	kindCount // sentinel, keep last
)

var kindNames = map[Kind]string{
	Invalid:      "Invalid",
	EOF:          "EOF",
	InlineHTML:   "InlineHTML",
	OpenTag:      "<?php",
	OpenEcho:     "<?=",
	CloseTag:     "?>",
	Ident:        "Ident",
	Variable:     "Variable",
	IntLit:       "IntLit",
	FloatLit:     "FloatLit",
	StringLit:    "StringLit",
	StringInterp: "StringInterp",
	Semicolon:    ";",
	Comma:        ",",
	LParen:       "(",
	RParen:       ")",
	LBrace:       "{",
	RBrace:       "}",
	LBracket:     "[",
	RBracket:     "]",
	Assign:       "=",
	PlusAssign:   "+=",
	MinusAssign:  "-=",
	MulAssign:    "*=",
	DivAssign:    "/=",
	ModAssign:    "%=",
	ConcatAssign: ".=",
	PowAssign:    "**=",
	CoalAssign:   "??=",
	AndAssign:    "&=",
	OrAssign:     "|=",
	XorAssign:    "^=",
	ShlAssign:    "<<=",
	ShrAssign:    ">>=",
	Plus:         "+",
	Minus:        "-",
	Mul:          "*",
	Div:          "/",
	Mod:          "%",
	Pow:          "**",
	Concat:       ".",
	Inc:          "++",
	Dec:          "--",
	Eq:           "==",
	NotEq:        "!=",
	Identical:    "===",
	NotIdent:     "!==",
	Lt:           "<",
	Gt:           ">",
	LtEq:         "<=",
	GtEq:         ">=",
	Spaceship:    "<=>",
	BoolAnd:      "&&",
	BoolOr:       "||",
	Not:          "!",
	AndKw:        "and",
	OrKw:         "or",
	XorKw:        "xor",
	Amp:          "&",
	Pipe:         "|",
	Caret:        "^",
	Tilde:        "~",
	Shl:          "<<",
	Shr:          ">>",
	Coal:         "??",
	Quest:        "?",
	Colon:        ":",
	Arrow:        "->",
	DArrow:       "=>",
	Scope:        "::",
	At:           "@",
	Dollar:       "$",
	Bslash:       "\\",

	KwFunction:    "function",
	KwReturn:      "return",
	KwIf:          "if",
	KwElse:        "else",
	KwElseif:      "elseif",
	KwWhile:       "while",
	KwDo:          "do",
	KwFor:         "for",
	KwForeach:     "foreach",
	KwAs:          "as",
	KwSwitch:      "switch",
	KwCase:        "case",
	KwDefault:     "default",
	KwBreak:       "break",
	KwContinue:    "continue",
	KwEcho:        "echo",
	KwPrint:       "print",
	KwGlobal:      "global",
	KwStatic:      "static",
	KwInclude:     "include",
	KwIncludeOnce: "include_once",
	KwRequire:     "require",
	KwRequireOnce: "require_once",
	KwTrue:        "true",
	KwFalse:       "false",
	KwNull:        "null",
	KwArray:       "array",
	KwList:        "list",
	KwIsset:       "isset",
	KwEmpty:       "empty",
	KwUnset:       "unset",
	KwNew:         "new",
	KwClass:       "class",
	KwExtends:     "extends",
	KwImplements:  "implements",
	KwPublic:      "public",
	KwPrivate:     "private",
	KwProtected:   "protected",
	KwVar:         "var",
	KwConst:       "const",
	KwInstanceof:  "instanceof",
	KwTry:         "try",
	KwCatch:       "catch",
	KwFinally:     "finally",
	KwThrow:       "throw",
	KwNamespace:   "namespace",
	KwUse:         "use",
	KwInterface:   "interface",
	KwAbstract:    "abstract",
	KwFinal:       "final",
	KwExit:        "exit",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// keywords maps lower-cased identifier text to keyword kinds. PHP keywords
// are case-insensitive.
var keywords = map[string]Kind{
	"function":     KwFunction,
	"return":       KwReturn,
	"if":           KwIf,
	"else":         KwElse,
	"elseif":       KwElseif,
	"while":        KwWhile,
	"do":           KwDo,
	"for":          KwFor,
	"foreach":      KwForeach,
	"as":           KwAs,
	"switch":       KwSwitch,
	"case":         KwCase,
	"default":      KwDefault,
	"break":        KwBreak,
	"continue":     KwContinue,
	"echo":         KwEcho,
	"print":        KwPrint,
	"global":       KwGlobal,
	"static":       KwStatic,
	"include":      KwInclude,
	"include_once": KwIncludeOnce,
	"require":      KwRequire,
	"require_once": KwRequireOnce,
	"true":         KwTrue,
	"false":        KwFalse,
	"null":         KwNull,
	"array":        KwArray,
	"list":         KwList,
	"isset":        KwIsset,
	"empty":        KwEmpty,
	"unset":        KwUnset,
	"new":          KwNew,
	"class":        KwClass,
	"extends":      KwExtends,
	"implements":   KwImplements,
	"public":       KwPublic,
	"private":      KwPrivate,
	"protected":    KwProtected,
	"var":          KwVar,
	"const":        KwConst,
	"instanceof":   KwInstanceof,
	"try":          KwTry,
	"catch":        KwCatch,
	"finally":      KwFinally,
	"throw":        KwThrow,
	"namespace":    KwNamespace,
	"use":          KwUse,
	"interface":    KwInterface,
	"abstract":     KwAbstract,
	"final":        KwFinal,
	"exit":         KwExit,
	"die":          KwExit,
	"and":          AndKw,
	"or":           OrKw,
	"xor":          XorKw,
}

// Lookup maps an identifier (already lower-cased by the caller) to its
// keyword kind, or returns Ident when the text is not a keyword.
func Lookup(lower string) Kind {
	if k, ok := keywords[lower]; ok {
		return k
	}
	return Ident
}

// Pos is a source position: a 1-based line and a 1-based byte column.
type Pos struct {
	Line int
	Col  int
}

// IsValid reports whether p refers to an actual source location.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Token is one lexical token: its kind, decoded value (for literals,
// identifiers and variables), and position of its first byte.
type Token struct {
	Kind  Kind
	Value string
	Pos   Pos
}

func (t Token) String() string {
	switch t.Kind {
	case Ident, Variable, IntLit, FloatLit, StringLit, StringInterp, InlineHTML:
		return fmt.Sprintf("%s(%q)@%s", t.Kind, t.Value, t.Pos)
	default:
		return fmt.Sprintf("%s@%s", t.Kind, t.Pos)
	}
}

// IsAssignOp reports whether k is any of PHP's compound or plain assignment
// operators.
func (k Kind) IsAssignOp() bool {
	switch k {
	case Assign, PlusAssign, MinusAssign, MulAssign, DivAssign, ModAssign,
		ConcatAssign, PowAssign, CoalAssign, AndAssign, OrAssign, XorAssign,
		ShlAssign, ShrAssign:
		return true
	}
	return false
}

// CompoundOp returns the underlying binary operator token for a compound
// assignment kind ("+=" -> "+"), and ok=false for plain "=" or non-assign
// kinds.
func (k Kind) CompoundOp() (Kind, bool) {
	switch k {
	case PlusAssign:
		return Plus, true
	case MinusAssign:
		return Minus, true
	case MulAssign:
		return Mul, true
	case DivAssign:
		return Div, true
	case ModAssign:
		return Mod, true
	case ConcatAssign:
		return Concat, true
	case PowAssign:
		return Pow, true
	case CoalAssign:
		return Coal, true
	case AndAssign:
		return Amp, true
	case OrAssign:
		return Pipe, true
	case XorAssign:
		return Caret, true
	case ShlAssign:
		return Shl, true
	case ShrAssign:
		return Shr, true
	}
	return Invalid, false
}
