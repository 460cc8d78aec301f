// Package translate implements UChecker's Z3-oriented constraint
// translation (Section III-D, Table II of the paper): the trl() function
// that rewrites PHP-semantics expressions — produced by traversing the
// heap graph — into SMT terms.
//
// The translation mitigates the four semantic gaps the paper identifies:
//
//  1. Different operation names (PHP "." vs SMT str.++, strpos vs
//     str.indexof, …).
//  2. Parameter order and missing parameters (str_replace's subject-last
//     order, substr's optional length).
//  3. PHP's dynamic typing vs SMT's static sorts: logical operators and
//     comparisons insert per-type truthiness coercions, exactly the case
//     analysis of Table II's Logical Not / Logical AND / Logical Equal
//     rows.
//  4. Operations SMT cannot express (in_array over unknown arrays,
//     basename of an unrecognizable path, rand(), database reads, …):
//     trl() returns a fresh symbolic value of the expected sort, stable
//     per heap-graph object so both constraints of a sink see the same
//     symbol.
//
// One deliberate deviation: Table II's Logical Not row prints the integer
// case as (not (= e 0)), which is the truthiness of e rather than its
// negation; PHP's !$x for an integer is true iff x == 0, so this
// implementation emits (= e 0).
package translate

import (
	"fmt"
	"strings"

	"repro/internal/heapgraph"
	"repro/internal/sexpr"
	"repro/internal/smt"
)

// Translator translates heap-graph values into SMT terms. It memoizes
// per-object fallback symbols so repeated translations of the same object
// (e.g. in the destination constraint and the reachability constraint of
// one sink) agree.
type Translator struct {
	g        *heapgraph.Graph
	fresh    int
	memo     map[memoKey]*smt.Term
	symSorts map[string]smt.Sort
	// f is the hash-consing factory all term construction routes through.
	// nil disables interning (direct construction) with identical output.
	f *smt.Factory
}

type memoKey struct {
	label heapgraph.Label
	sort  smt.Sort
}

// New returns a Translator over the given heap graph, without interning.
func New(g *heapgraph.Graph) *Translator {
	return NewWithFactory(g, nil)
}

// NewWithFactory returns a Translator whose term construction is interned
// through f (nil means no interning). Emitted terms are structurally
// identical either way; with a factory, structurally equal results are
// also pointer-equal, which downstream memoization keys on.
func NewWithFactory(g *heapgraph.Graph, f *smt.Factory) *Translator {
	return &Translator{
		g:        g,
		memo:     map[memoKey]*smt.Term{},
		symSorts: map[string]smt.Sort{},
		f:        f,
	}
}

// Factory returns the translator's term factory (possibly nil), so the
// verdict layer can build its constraint conjunctions in the same interned
// universe the translated terms live in.
func (t *Translator) Factory() *smt.Factory { return t.f }

// Label translates the value rooted at a heap-graph label into a term of
// the wanted sort.
func (t *Translator) Label(l heapgraph.Label, want smt.Sort) *smt.Term {
	if l == heapgraph.Null {
		return t.defaultTerm(want)
	}
	if cached, ok := t.memo[memoKey{l, want}]; ok {
		return cached
	}
	term := t.translate(l, want)
	term = t.coerce(term, want)
	t.memo[memoKey{l, want}] = term
	return term
}

func (t *Translator) defaultTerm(want smt.Sort) *smt.Term {
	switch want {
	case smt.SortBool:
		return t.f.True()
	case smt.SortInt:
		return t.f.Int(0)
	default:
		return t.f.Str("")
	}
}

// freshSym mints a stable fallback symbol for an untranslatable object.
func (t *Translator) freshSym(l heapgraph.Label, hint string, want smt.Sort) *smt.Term {
	key := memoKey{l, want}
	if cached, ok := t.memo[key]; ok {
		return cached
	}
	t.fresh++
	name := fmt.Sprintf("s_%s_%d", sanitize(hint), t.fresh)
	v := t.f.Var(name, want)
	t.memo[key] = v
	return v
}

func sanitize(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_' {
			sb.WriteByte(c)
		} else {
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "x"
	}
	return sb.String()
}

// symVar returns the SMT variable for a named PHP symbol, keeping one sort
// per name (the first requested); other-sort requests are coerced by the
// caller via coerce().
func (t *Translator) symVar(name string, declared sexpr.Type, want smt.Sort) *smt.Term {
	sort, ok := t.symSorts[name]
	if !ok {
		switch declared {
		case sexpr.String:
			sort = smt.SortString
		case sexpr.Int:
			sort = smt.SortInt
		case sexpr.Bool:
			sort = smt.SortBool
		case sexpr.Float:
			sort = smt.SortInt
		default:
			sort = want
		}
		t.symSorts[name] = sort
	}
	return t.f.Var(name, sort)
}

// coerce converts a term between sorts using PHP's coercion semantics:
// integers to/from their decimal strings, truthiness for booleans.
func (t *Translator) coerce(term *smt.Term, want smt.Sort) *smt.Term {
	have := term.Sort()
	if have == want {
		return term
	}
	switch {
	case have == smt.SortInt && want == smt.SortString:
		return t.f.FromInt(term)
	case have == smt.SortString && want == smt.SortInt:
		return t.f.ToInt(term)
	case have == smt.SortInt && want == smt.SortBool:
		return t.f.Not(t.f.Eq(term, t.f.Int(0)))
	case have == smt.SortString && want == smt.SortBool:
		return t.f.Gt(t.f.Len(term), t.f.Int(0))
	case have == smt.SortBool && want == smt.SortInt:
		return t.f.Ite(term, t.f.Int(1), t.f.Int(0))
	case have == smt.SortBool && want == smt.SortString:
		return t.f.Ite(term, t.f.Str("1"), t.f.Str(""))
	}
	return term
}

// translate dispatches on the object kind.
func (t *Translator) translate(l heapgraph.Label, want smt.Sort) *smt.Term {
	o, ok := t.g.Find(l)
	if !ok {
		return t.defaultTerm(want)
	}
	switch o.Kind {
	case heapgraph.KindConcrete:
		return t.constTerm(o.Val, want)
	case heapgraph.KindSymbol:
		return t.symVar(o.Name, o.Type, want)
	case heapgraph.KindArray:
		// A whole array in a scalar position: opaque.
		return t.freshSym(l, "array", want)
	default:
		return t.translateApp(l, o, want)
	}
}

func (t *Translator) constTerm(v sexpr.Expr, want smt.Sort) *smt.Term {
	switch x := v.(type) {
	case sexpr.StrVal:
		return t.f.Str(string(x))
	case sexpr.IntVal:
		return t.f.Int(int64(x))
	case sexpr.BoolVal:
		return t.f.Bool(bool(x))
	case sexpr.FloatVal:
		return t.f.Int(int64(x))
	case sexpr.NullVal:
		return t.defaultTerm(want)
	default:
		return t.defaultTerm(want)
	}
}

// translateApp handles operation and built-in function objects per
// Table II.
func (t *Translator) translateApp(l heapgraph.Label, o heapgraph.Object, want smt.Sort) *smt.Term {
	edges := t.g.Edges(l)
	arg := func(i int, s smt.Sort) *smt.Term {
		if i >= len(edges) {
			return t.freshSym(l, o.Name+"_missing", s)
		}
		return t.Label(edges[i], s)
	}
	argSort := func(i int) sexpr.Type {
		if i >= len(edges) {
			return sexpr.Unknown
		}
		if eo, ok := t.g.Find(edges[i]); ok {
			return eo.Type
		}
		return sexpr.Unknown
	}

	switch o.Name {
	// --- String concat: (str.++ e1 e2) ---
	case ".":
		return t.f.Concat(arg(0, smt.SortString), arg(1, smt.SortString))

	// --- String replace: parameter reorder per Table II ---
	case "str_replace", "str_ireplace":
		// PHP: str_replace($search, $replace, $subject)
		// SMT: (str.replace subject search replace)
		return t.f.Replace(arg(2, smt.SortString), arg(0, smt.SortString), arg(1, smt.SortString))

	// --- String to int ---
	case "intval", "cast_int":
		if argSort(0) == sexpr.Int {
			return arg(0, smt.SortInt)
		}
		return t.f.ToInt(arg(0, smt.SortString))

	// --- Index of string ---
	case "strpos":
		from := t.f.Int(0)
		if len(edges) >= 3 {
			from = arg(2, smt.SortInt)
		}
		return t.f.IndexOf(arg(0, smt.SortString), arg(1, smt.SortString), from)

	// --- String length ---
	case "strlen":
		return t.f.Len(arg(0, smt.SortString))

	// --- Logical not (and empty(), which is !truthy) ---
	case "!", "NOT", "not", "empty":
		return t.truthyNot(edges, l, o)

	// --- Logical and/or with dynamic-type coercions ---
	case "And", "&&", "and":
		return t.f.And(t.truthy(edges, 0, l, o), t.truthy(edges, 1, l, o))
	case "Or", "||", "or":
		return t.f.Or(t.truthy(edges, 0, l, o), t.truthy(edges, 1, l, o))
	case "xor":
		a, b := t.truthy(edges, 0, l, o), t.truthy(edges, 1, l, o)
		return t.f.Not(t.f.Eq(a, b))

	// --- Equality with dynamic-type case analysis ---
	case "==", "===":
		return t.logicalEqual(edges, l, o, o.Name == "===")
	case "!=", "!==", "<>":
		return t.f.Not(t.logicalEqual(edges, l, o, o.Name == "!=="))

	// --- Integer comparisons (strings coerced via str.to.int) ---
	case "<":
		return t.f.Lt(arg(0, smt.SortInt), arg(1, smt.SortInt))
	case ">":
		return t.f.Gt(arg(0, smt.SortInt), arg(1, smt.SortInt))
	case "<=":
		return t.f.Le(arg(0, smt.SortInt), arg(1, smt.SortInt))
	case ">=":
		return t.f.Ge(arg(0, smt.SortInt), arg(1, smt.SortInt))

	// --- Arithmetic ---
	case "+":
		return t.f.Add(arg(0, smt.SortInt), arg(1, smt.SortInt))
	case "-":
		if len(edges) == 1 {
			return t.f.Neg(arg(0, smt.SortInt))
		}
		return t.f.Sub(arg(0, smt.SortInt), arg(1, smt.SortInt))
	case "*":
		return t.f.Mul(arg(0, smt.SortInt), arg(1, smt.SortInt))

	// --- Array membership: expand over recognized arrays ---
	case "in_array":
		return t.inArray(edges, l, o)

	// --- Substring, with the optional-length default of Table II ---
	case "substr":
		s := arg(0, smt.SortString)
		start := arg(1, smt.SortInt)
		length := t.f.Len(s)
		if len(edges) >= 3 {
			length = arg(2, smt.SortInt)
		}
		// PHP negative start counts from the end; model the common
		// substr($s, -n) idiom.
		if start.Op == smt.OpIntConst && start.I < 0 {
			offset := start.I
			start = t.f.Add(t.f.Len(s), t.f.Int(offset))
			if len(edges) < 3 {
				length = t.f.Int(-offset)
			}
		}
		return t.f.Substr(s, start, length)

	// --- Tail element of a recognized array ---
	case "end", "array_pop":
		if len(edges) == 1 {
			if info := t.g.Array(edges[0]); info != nil && len(info.Keys) > 0 {
				return t.Label(info.Elems[info.Keys[len(info.Keys)-1]], want)
			}
		}
		return t.freshSym(l, "end", smt.SortString)

	// --- File name ---
	case "basename":
		return t.basename(edges, l, o)

	// --- Case/whitespace transforms preserve the suffix/extension
	//     structure closely enough for the extension constraint; pass
	//     through (documented approximation). ---
	case "strtolower", "strtoupper", "trim", "ltrim", "rtrim",
		"stripslashes", "sanitize_file_name", "urldecode", "rawurldecode":
		if len(edges) >= 1 {
			return arg(0, smt.SortString)
		}
		return t.freshSym(l, o.Name, smt.SortString)

	// --- Regular-expression guards (Section VI extension; see regex.go).
	//     preg_match returns int 1/0 in PHP, so the boolean match term is
	//     wrapped in an ite. ---
	case "preg_match":
		if len(edges) >= 2 {
			if po, ok := t.g.Find(edges[0]); ok && po.Kind == heapgraph.KindConcrete {
				if pat, isStr := po.Val.(sexpr.StrVal); isStr {
					subj := t.Label(edges[1], smt.SortString)
					if match, ok := pregMatchTerm(t.f, string(pat), subj); ok {
						return t.f.Ite(match, t.f.Int(1), t.f.Int(0))
					}
				}
			}
		}
		return t.freshSym(l, "preg_match", smt.SortInt)

	// --- Ternary ---
	case "ite":
		c := t.truthy(edges, 0, l, o)
		return t.f.Ite(c, arg(1, want), arg(2, want))

	// --- Casts ---
	case "cast_string":
		return arg(0, smt.SortString)
	case "cast_bool":
		return t.truthy(edges, 0, l, o)

	// --- Coalesce: left operand unless null; nulls are not tracked, so
	//     keep the left value. ---
	case "??":
		return arg(0, want)

	// --- isset: runtime state unknown -> fresh boolean ---
	case "isset":
		return t.freshSym(l, "isset", smt.SortBool)

	default:
		// Unknown function/operation: fresh symbol of the expected sort
		// (the paper's exception rule), typed by the object's declared
		// result type when it has one.
		sort := want
		switch o.Type {
		case sexpr.String:
			sort = smt.SortString
		case sexpr.Int:
			sort = smt.SortInt
		case sexpr.Bool:
			sort = smt.SortBool
		}
		return t.freshSym(l, o.Name, sort)
	}
}

// truthy translates edge i as a boolean using PHP truthiness per the
// argument's type (Table II's Logical AND row):
//
//	bool   -> itself
//	int    -> (not (= e 0))
//	string -> (> (str.len e) 0)
func (t *Translator) truthy(edges []heapgraph.Label, i int, l heapgraph.Label, o heapgraph.Object) *smt.Term {
	if i >= len(edges) {
		return t.freshSym(l, o.Name+"_truthy", smt.SortBool)
	}
	term := t.Label(edges[i], t.naturalSort(edges[i]))
	switch term.Sort() {
	case smt.SortBool:
		return term
	case smt.SortInt:
		return t.f.Not(t.f.Eq(term, t.f.Int(0)))
	default:
		return t.f.Gt(t.f.Len(term), t.f.Int(0))
	}
}

// truthyNot is PHP's !e per type (see the package comment for the
// deviation from Table II's int row):
//
//	bool   -> (not e)
//	int    -> (= e 0)
//	string -> (= (str.len e) 0)
func (t *Translator) truthyNot(edges []heapgraph.Label, l heapgraph.Label, o heapgraph.Object) *smt.Term {
	if len(edges) == 0 {
		return t.freshSym(l, "not", smt.SortBool)
	}
	term := t.Label(edges[0], t.naturalSort(edges[0]))
	switch term.Sort() {
	case smt.SortBool:
		return t.f.Not(term)
	case smt.SortInt:
		return t.f.Eq(term, t.f.Int(0))
	default:
		return t.f.Eq(t.f.Len(term), t.f.Int(0))
	}
}

// naturalSort picks the SMT sort an object most naturally translates to.
func (t *Translator) naturalSort(l heapgraph.Label) smt.Sort {
	o, ok := t.g.Find(l)
	if !ok {
		return smt.SortBool
	}
	switch o.Type {
	case sexpr.Bool:
		return smt.SortBool
	case sexpr.Int, sexpr.Float:
		return smt.SortInt
	case sexpr.String:
		return smt.SortString
	}
	// Unknown-typed symbols: default by kind of value they hold.
	if o.Kind == heapgraph.KindConcrete {
		switch o.Val.(type) {
		case sexpr.BoolVal:
			return smt.SortBool
		case sexpr.IntVal:
			return smt.SortInt
		case sexpr.StrVal:
			return smt.SortString
		}
	}
	if o.Kind == heapgraph.KindSymbol {
		if s, ok := t.symSorts[o.Name]; ok {
			return s
		}
	}
	return smt.SortString
}

// logicalEqual implements Table II's Logical Equal case analysis.
func (t *Translator) logicalEqual(edges []heapgraph.Label, l heapgraph.Label, o heapgraph.Object, strict bool) *smt.Term {
	if len(edges) < 2 {
		return t.freshSym(l, "eq", smt.SortBool)
	}
	sa, sb := t.naturalSort(edges[0]), t.naturalSort(edges[1])
	a := t.Label(edges[0], sa)
	b := t.Label(edges[1], sb)
	// Recompute sorts after translation (symbols may resolve differently).
	sa, sb = a.Sort(), b.Sort()
	switch {
	case sa == sb:
		return t.f.Eq(a, b)
	case strict:
		// Different types are never identical under ===.
		return t.f.False()
	case sa == smt.SortBool && sb == smt.SortInt:
		return t.f.Eq(a, t.f.Gt(b, t.f.Int(0)))
	case sa == smt.SortInt && sb == smt.SortBool:
		return t.f.Eq(b, t.f.Gt(a, t.f.Int(0)))
	case sa == smt.SortBool && sb == smt.SortString:
		return t.f.Eq(a, t.f.Gt(t.f.Len(b), t.f.Int(0)))
	case sa == smt.SortString && sb == smt.SortBool:
		return t.f.Eq(b, t.f.Gt(t.f.Len(a), t.f.Int(0)))
	case sa == smt.SortInt && sb == smt.SortString:
		return t.f.Eq(a, t.f.ToInt(b))
	case sa == smt.SortString && sb == smt.SortInt:
		return t.f.Eq(b, t.f.ToInt(a))
	default:
		return t.f.Eq(a, t.coerce(b, sa))
	}
}

// inArray implements Table II's Array Check: when the haystack is a
// recognized array, expand to a disjunction of equalities; otherwise a
// fresh boolean.
func (t *Translator) inArray(edges []heapgraph.Label, l heapgraph.Label, o heapgraph.Object) *smt.Term {
	if len(edges) >= 2 {
		if info := t.g.Array(edges[1]); info != nil {
			if len(info.Keys) == 0 {
				return t.f.False()
			}
			needle := t.Label(edges[0], smt.SortString)
			var opts []*smt.Term
			for _, k := range info.Keys {
				elem := t.Label(info.Elems[k], smt.SortString)
				opts = append(opts, t.f.Eq(needle, elem))
			}
			return t.f.Or(opts...)
		}
	}
	return t.freshSym(l, "in_array", smt.SortBool)
}

// basename implements Table II's File Name rule: a concrete path folds to
// its final component; a concatenation whose constant parts contain no
// path separator passes through unchanged (uploads' structured names);
// anything else becomes a fresh string symbol.
func (t *Translator) basename(edges []heapgraph.Label, l heapgraph.Label, o heapgraph.Object) *smt.Term {
	if len(edges) == 0 {
		return t.freshSym(l, "basename", smt.SortString)
	}
	term := t.Label(edges[0], smt.SortString)
	if term.Op == smt.OpStrConst {
		s := term.S
		if i := strings.LastIndexByte(s, '/'); i >= 0 {
			s = s[i+1:]
		}
		return t.f.Str(s)
	}
	if noSeparator(term) {
		return term
	}
	return t.freshSym(l, "basename", smt.SortString)
}

// noSeparator reports that no constant part of the term contains '/'.
func noSeparator(term *smt.Term) bool {
	if term.Op == smt.OpStrConst {
		return !strings.Contains(term.S, "/")
	}
	for _, a := range term.Args {
		if !noSeparator(a) {
			return false
		}
	}
	return true
}
