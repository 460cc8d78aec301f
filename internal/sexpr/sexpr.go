// Package sexpr defines PHP-semantics s-expressions.
//
// The UChecker paper models the destination-filename constraint and the
// reachability constraint of each execution path as s-expressions over
// PHP operators, built-in functions, concrete values and symbolic values
// (Section III-C), e.g.
//
//	se_dst          = (".", s_path, (".", "/", (".", s_name, s_ext)))
//	se_reachability = (>, (strlen, (".", s_name, s_ext)), 5)
//
// This package is the in-memory form of those expressions: the heap-graph
// traversal produces them and the Z3-oriented translator (internal/
// translate) consumes them.
package sexpr

import (
	"fmt"
	"strconv"
	"strings"
)

// Type is the light type attached to symbolic values and operation results.
// The paper's T set contains primitive types, the array type, and the
// unknown type ⊥.
type Type uint8

// Types.
const (
	Unknown Type = iota // ⊥
	Bool
	Int
	Float
	String
	Array
	Null
)

func (t Type) String() string {
	switch t {
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	case Array:
		return "array"
	case Null:
		return "null"
	default:
		return "⊥"
	}
}

// Expr is a PHP-semantics s-expression node.
type Expr interface {
	// Kind returns the node's type: concrete values report their value
	// type, symbols their assigned type, and applications their result
	// type.
	Kind() Type
	// write renders the node in s-expression syntax.
	write(sb *strings.Builder)
}

// StrVal is a concrete string.
type StrVal string

// IntVal is a concrete integer.
type IntVal int64

// BoolVal is a concrete boolean.
type BoolVal bool

// FloatVal is a concrete float.
type FloatVal float64

// NullVal is PHP null.
type NullVal struct{}

// Sym is a symbolic value with a unique name and a (possibly unknown) type.
type Sym struct {
	Name string
	Type Type
}

// App is the application of a PHP operator or built-in function to
// arguments. Op uses PHP spellings: ".", ">", "!", "strlen", "basename",
// "array_access", ...
type App struct {
	Op   string
	Type Type // result type
	Args []Expr
}

// Kind implementations.

func (StrVal) Kind() Type   { return String }
func (IntVal) Kind() Type   { return Int }
func (BoolVal) Kind() Type  { return Bool }
func (FloatVal) Kind() Type { return Float }
func (NullVal) Kind() Type  { return Null }
func (s *Sym) Kind() Type   { return s.Type }
func (a *App) Kind() Type   { return a.Type }

func (v StrVal) write(sb *strings.Builder)  { sb.WriteString(strconv.Quote(string(v))) }
func (v IntVal) write(sb *strings.Builder)  { sb.WriteString(strconv.FormatInt(int64(v), 10)) }
func (v BoolVal) write(sb *strings.Builder) { sb.WriteString(strconv.FormatBool(bool(v))) }
func (v FloatVal) write(sb *strings.Builder) {
	sb.WriteString(strconv.FormatFloat(float64(v), 'g', -1, 64))
}
func (NullVal) write(sb *strings.Builder) { sb.WriteString("null") }
func (s *Sym) write(sb *strings.Builder)  { sb.WriteString(s.Name) }

func (a *App) write(sb *strings.Builder) {
	sb.WriteByte('(')
	sb.WriteString(a.Op)
	for _, arg := range a.Args {
		sb.WriteByte(' ')
		if arg == nil {
			sb.WriteString("nil")
			continue
		}
		arg.write(sb)
	}
	sb.WriteByte(')')
}

// Format renders any expression in s-expression syntax, e.g.
// (> (strlen (. s_name s_ext)) 5).
func Format(e Expr) string {
	if e == nil {
		return "nil"
	}
	var sb strings.Builder
	e.write(&sb)
	return sb.String()
}

// NewApp builds an application node.
func NewApp(op string, t Type, args ...Expr) *App {
	return &App{Op: op, Type: t, Args: args}
}

// NewSym builds a symbolic value.
func NewSym(name string, t Type) *Sym { return &Sym{Name: name, Type: t} }

// Equal reports structural equality of two expressions. Symbols compare by
// name and type.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case StrVal:
		y, ok := b.(StrVal)
		return ok && x == y
	case IntVal:
		y, ok := b.(IntVal)
		return ok && x == y
	case BoolVal:
		y, ok := b.(BoolVal)
		return ok && x == y
	case FloatVal:
		y, ok := b.(FloatVal)
		return ok && x == y
	case NullVal:
		_, ok := b.(NullVal)
		return ok
	case *Sym:
		y, ok := b.(*Sym)
		return ok && x.Name == y.Name && x.Type == y.Type
	case *App:
		y, ok := b.(*App)
		if !ok || x.Op != y.Op || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Symbols returns every distinct symbol appearing in e, in first-occurrence
// order.
func Symbols(e Expr) []*Sym {
	var out []*Sym
	seen := map[string]bool{}
	var walk func(Expr)
	walk = func(x Expr) {
		switch v := x.(type) {
		case *Sym:
			if !seen[v.Name] {
				seen[v.Name] = true
				out = append(out, v)
			}
		case *App:
			for _, a := range v.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}

// Walk applies f to every node of e in pre-order.
func Walk(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	if app, ok := e.(*App); ok {
		for _, a := range app.Args {
			Walk(a, f)
		}
	}
}

// StringLits returns every distinct concrete string appearing in e.
func StringLits(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	Walk(e, func(x Expr) {
		if s, ok := x.(StrVal); ok && !seen[string(s)] {
			seen[string(s)] = true
			out = append(out, string(s))
		}
	})
	return out
}

// GoString aids debugging in test failure messages.
func GoString(e Expr) string { return fmt.Sprintf("sexpr(%s)", Format(e)) }
