package smt

import "strings"

// Simplify rewrites t into an equivalent, usually smaller term. It performs
// constant folding across all operations plus structural string reasoning:
// concatenation flattening and constant merging, suffix/prefix
// decomposition over concatenations, length-of-concatenation arithmetic,
// boolean unit propagation, and complement detection. Simplification is the
// solver's "cheap deduction" layer: many unsatisfiable constraints (e.g. a
// ".php"-suffix requirement against a constant ".zip" tail) fold to false
// here without any search.
func Simplify(t *Term) *Term {
	var st Stats
	return (*Factory)(nil).simplifyCounted(t, &st)
}

// Simplify is the factory-routed Simplify: rewriting runs through the
// factory's per-node memo tables (when f is non-nil), so shared subterms —
// in particular the path-condition prefix common to sibling paths — are
// rewritten once. The result is structurally identical to the package
// Simplify; only the work differs.
func (f *Factory) Simplify(t *Term) *Term {
	var st Stats
	return f.simplifyCounted(t, &st)
}

// simplifyCounted is Simplify with rewrite accounting: every pass that
// changed the term increments st.Rewrites, so the solver's Stats report
// how much cheap deduction the simplifier performed.
//
// The fixpoint is memoized per input node: a repeat query replays the
// recorded pass count into st, keeping Stats byte-identical whether the
// result was computed or recalled.
func (f *Factory) simplifyCounted(t *Term, st *Stats) *Term {
	if f != nil {
		if r, ok := f.fixMemo[t]; ok {
			f.stats.SimplifyMemoHits++
			st.Rewrites += f.fixCost[t]
			return r
		}
	}
	cur := t
	rewrites := 0
	converged := false
	for i := 0; i < 8; i++ {
		next := f.simplify1(cur)
		if next == cur || Equal(next, cur) {
			cur = next
			converged = true
			break
		}
		rewrites++
		cur = next
	}
	st.Rewrites += rewrites
	if f != nil {
		f.fixMemo[t] = cur
		f.fixCost[t] = rewrites
		if converged && cur != t {
			// A converged result is itself a fixpoint: querying it again
			// costs zero passes.
			if _, ok := f.fixMemo[cur]; !ok {
				f.fixMemo[cur] = cur
				f.fixCost[cur] = 0
			}
		}
	}
	return cur
}

// simplify1 is one bottom-up rewriting pass, memoized per node when f is
// non-nil. Results are structurally identical to the historical
// non-factory pass; interning only canonicalizes the pointers.
func (f *Factory) simplify1(t *Term) *Term {
	if t == nil || t.IsConst() || t.Op == OpVar {
		return t
	}
	if f != nil {
		if r, ok := f.simp1Memo[t]; ok {
			f.stats.SimplifyMemoHits++
			return r
		}
	}
	r := f.simplify1Work(t)
	if f != nil {
		f.simp1Memo[t] = r
	}
	return r
}

func (f *Factory) simplify1Work(t *Term) *Term {
	args := make([]*Term, len(t.Args))
	ground := true
	for i, a := range t.Args {
		args[i] = f.simplify1(a)
		if !args[i].IsConst() {
			ground = false
		}
	}
	n := f.mk(t.Op, t.sort, t.B, t.I, t.S, args)

	// Ground term: fold through the evaluator.
	if ground && t.Op != OpVar {
		if v, err := Eval(n, nil); err == nil {
			return f.constOf(v)
		}
	}

	switch n.Op {
	case OpNot:
		return f.simplifyNot(n)
	case OpAnd:
		return f.simplifyAndOr(n, true)
	case OpOr:
		return f.simplifyAndOr(n, false)
	case OpEq:
		return f.simplifyEq(n)
	case OpIte:
		if args[0].Op == OpBoolConst {
			if args[0].B {
				return args[1]
			}
			return args[2]
		}
		if Equal(args[1], args[2]) {
			return args[1]
		}
		return n
	case OpConcat:
		return f.simplifyConcat(n)
	case OpLen:
		return f.simplifyLen(n)
	case OpSuffixOf:
		return f.simplifySuffixOf(n)
	case OpPrefixOf:
		return f.simplifyPrefixOf(n)
	case OpContains:
		return f.simplifyContains(n)
	case OpAdd:
		return f.simplifyAdd(n)
	case OpLt, OpLe, OpGt, OpGe:
		return f.simplifyCmp(n)
	default:
		return n
	}
}

func (f *Factory) constOf(v Value) *Term {
	switch v.Sort {
	case SortBool:
		return Bool(v.B)
	case SortInt:
		return f.Int(v.I)
	default:
		return f.Str(v.S)
	}
}

func (f *Factory) simplifyNot(n *Term) *Term {
	x := n.Args[0]
	switch x.Op {
	case OpBoolConst:
		return Bool(!x.B)
	case OpNot:
		return x.Args[0]
	}
	return n
}

func (f *Factory) simplifyAndOr(n *Term, isAnd bool) *Term {
	unit := isAnd      // true is the unit of and, false of or
	absorber := !isAnd // false absorbs and, true absorbs or
	var flat []*Term
	for _, a := range n.Args {
		if a.Op == n.Op {
			flat = append(flat, a.Args...)
			continue
		}
		flat = append(flat, a)
	}
	var kept []*Term
	for _, a := range flat {
		if a.Op == OpBoolConst {
			if a.B == absorber {
				return Bool(absorber)
			}
			if a.B == unit {
				continue
			}
		}
		// Deduplicate.
		dup := false
		for _, k := range kept {
			if Equal(k, a) {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, a)
		}
	}
	// Complement detection: x and not x.
	for _, a := range kept {
		for _, b := range kept {
			if a.Op == OpNot && Equal(a.Args[0], b) {
				return Bool(absorber)
			}
		}
	}
	switch len(kept) {
	case 0:
		return Bool(unit)
	case 1:
		return kept[0]
	}
	return f.mk(n.Op, SortBool, false, 0, "", kept)
}

func (f *Factory) simplifyEq(n *Term) *Term {
	a, b := n.Args[0], n.Args[1]
	if Equal(a, b) {
		return True()
	}
	if a.IsConst() && b.IsConst() {
		// Different constants (Equal already ruled out same).
		return False()
	}
	// Lift equality over ite: (= (ite c x y) k) → (ite c (= x k) (= y k)).
	// NNF later expands the boolean ite into a disjunction, so guard
	// patterns like (= (ite match 1 0) 0) reduce to ¬match.
	if a.Op == OpIte {
		return f.simplify1(f.Ite(a.Args[0], f.Eq(a.Args[1], b), f.Eq(a.Args[2], b)))
	}
	if b.Op == OpIte {
		return f.simplify1(f.Ite(b.Args[0], f.Eq(a, b.Args[1]), f.Eq(a, b.Args[2])))
	}
	if a.Sort() == SortString {
		return f.simplifyStrEq(n, a, b)
	}
	return n
}

// simplifyStrEq strips common constant prefixes and suffixes from string
// equalities over concatenations and detects constant mismatches.
func (f *Factory) simplifyStrEq(n *Term, a, b *Term) *Term {
	la, lb := f.concatParts(a), f.concatParts(b)
	// Strip common constant prefix.
	for len(la) > 0 && len(lb) > 0 {
		x, y := la[0], lb[0]
		if x.Op == OpStrConst && y.Op == OpStrConst && x.S != y.S {
			p := commonPrefix(x.S, y.S)
			if p == 0 {
				return False()
			}
			la[0], lb[0] = f.Str(x.S[p:]), f.Str(y.S[p:])
			if la[0].S == "" {
				la = la[1:]
			}
			if lb[0].S == "" {
				lb = lb[1:]
			}
			continue
		}
		if Equal(x, y) {
			la, lb = la[1:], lb[1:]
			continue
		}
		break
	}
	// Strip common constant suffix.
	for len(la) > 0 && len(lb) > 0 {
		x, y := la[len(la)-1], lb[len(lb)-1]
		if x.Op == OpStrConst && y.Op == OpStrConst && x.S != y.S {
			p := commonSuffix(x.S, y.S)
			if p == 0 {
				return False()
			}
			la[len(la)-1] = f.Str(x.S[:len(x.S)-p])
			lb[len(lb)-1] = f.Str(y.S[:len(y.S)-p])
			if la[len(la)-1].S == "" {
				la = la[:len(la)-1]
			}
			if lb[len(lb)-1].S == "" {
				lb = lb[:len(lb)-1]
			}
			continue
		}
		if Equal(x, y) {
			la, lb = la[:len(la)-1], lb[:len(lb)-1]
			continue
		}
		break
	}
	na, nb := f.Concat(la...), f.Concat(lb...)
	if Equal(na, nb) {
		return True()
	}
	if na.IsConst() && nb.IsConst() {
		return Bool(na.S == nb.S)
	}
	// An empty side forces every remaining part of the other side empty.
	if na.Op == OpStrConst && na.S == "" && nb.Op == OpConcat {
		parts := make([]*Term, 0, len(nb.Args))
		for _, p := range nb.Args {
			parts = append(parts, f.Eq(p, f.Str("")))
		}
		return f.simplifyAndOr(f.And(parts...), true)
	}
	if nb.Op == OpStrConst && nb.S == "" && na.Op == OpConcat {
		parts := make([]*Term, 0, len(na.Args))
		for _, p := range na.Args {
			parts = append(parts, f.Eq(p, f.Str("")))
		}
		return f.simplifyAndOr(f.And(parts...), true)
	}
	if Equal(na, n.Args[0]) && Equal(nb, n.Args[1]) {
		return n
	}
	return f.Eq(na, nb)
}

// concatParts returns the flattened concatenation parts of a string term
// (a copy safe to mutate), merging adjacent constants.
func (f *Factory) concatParts(t *Term) []*Term {
	var parts []*Term
	var walk func(*Term)
	walk = func(x *Term) {
		if x.Op == OpConcat {
			for _, a := range x.Args {
				walk(a)
			}
			return
		}
		parts = append(parts, x)
	}
	walk(t)
	return f.mergeConstParts(parts)
}

func (f *Factory) mergeConstParts(parts []*Term) []*Term {
	var out []*Term
	for _, p := range parts {
		if p.Op == OpStrConst && p.S == "" {
			continue
		}
		if len(out) > 0 && out[len(out)-1].Op == OpStrConst && p.Op == OpStrConst {
			out[len(out)-1] = f.Str(out[len(out)-1].S + p.S)
			continue
		}
		out = append(out, p)
	}
	return out
}

func commonPrefix(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func commonSuffix(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}

func (f *Factory) simplifyConcat(n *Term) *Term {
	parts := f.concatParts(n)
	return f.Concat(parts...)
}

func (f *Factory) simplifyLen(n *Term) *Term {
	x := n.Args[0]
	switch x.Op {
	case OpStrConst:
		return f.Int(int64(len(x.S)))
	case OpConcat:
		// len(a ++ b) = len a + len b, folding constant parts.
		var constSum int64
		var terms []*Term
		for _, p := range x.Args {
			if p.Op == OpStrConst {
				constSum += int64(len(p.S))
				continue
			}
			terms = append(terms, f.Len(p))
		}
		if constSum != 0 || len(terms) == 0 {
			terms = append(terms, f.Int(constSum))
		}
		return f.simplifyAdd(f.Add(terms...))
	case OpFromInt:
		return n
	}
	return n
}

func (f *Factory) simplifySuffixOf(n *Term) *Term {
	suffix, s := n.Args[0], n.Args[1]
	if suffix.Op == OpStrConst {
		if suffix.S == "" {
			return True()
		}
		parts := f.concatParts(s)
		suf := suffix.S
		// Peel constant tail parts.
		for len(parts) > 0 {
			last := parts[len(parts)-1]
			if last.Op != OpStrConst {
				break
			}
			if len(last.S) >= len(suf) {
				return Bool(strings.HasSuffix(last.S, suf))
			}
			if !strings.HasSuffix(suf, last.S) {
				return False()
			}
			suf = suf[:len(suf)-len(last.S)]
			parts = parts[:len(parts)-1]
		}
		if len(parts) == 0 {
			return Bool(suf == "")
		}
		return f.SuffixOf(f.Str(suf), f.Concat(parts...))
	}
	if Equal(suffix, s) {
		return True()
	}
	return n
}

func (f *Factory) simplifyPrefixOf(n *Term) *Term {
	prefix, s := n.Args[0], n.Args[1]
	if prefix.Op == OpStrConst {
		if prefix.S == "" {
			return True()
		}
		parts := f.concatParts(s)
		pre := prefix.S
		for len(parts) > 0 {
			first := parts[0]
			if first.Op != OpStrConst {
				break
			}
			if len(first.S) >= len(pre) {
				return Bool(strings.HasPrefix(first.S, pre))
			}
			if !strings.HasPrefix(pre, first.S) {
				return False()
			}
			pre = pre[len(first.S):]
			parts = parts[1:]
		}
		if len(parts) == 0 {
			return Bool(pre == "")
		}
		return f.PrefixOf(f.Str(pre), f.Concat(parts...))
	}
	if Equal(prefix, s) {
		return True()
	}
	return n
}

func (f *Factory) simplifyContains(n *Term) *Term {
	s, sub := n.Args[0], n.Args[1]
	if sub.Op == OpStrConst {
		if sub.S == "" {
			return True()
		}
		// If any single constant part already contains sub, true.
		if s.Op == OpConcat {
			for _, p := range s.Args {
				if p.Op == OpStrConst && strings.Contains(p.S, sub.S) {
					return True()
				}
			}
		}
	}
	if Equal(s, sub) {
		return True()
	}
	return n
}

func (f *Factory) simplifyAdd(n *Term) *Term {
	var flat []*Term
	var walk func(*Term)
	walk = func(x *Term) {
		if x.Op == OpAdd {
			for _, a := range x.Args {
				walk(a)
			}
			return
		}
		flat = append(flat, x)
	}
	walk(n)
	var constSum int64
	var terms []*Term
	for _, p := range flat {
		if p.Op == OpIntConst {
			constSum += p.I
			continue
		}
		terms = append(terms, p)
	}
	if constSum != 0 || len(terms) == 0 {
		terms = append(terms, f.Int(constSum))
	}
	if len(terms) == 1 {
		return terms[0]
	}
	return f.mk(OpAdd, SortInt, false, 0, "", terms)
}

// simplifyCmp normalizes comparisons whose sides share constant offsets,
// e.g. (> (+ x 4) 10) → (> x 6), and evaluates len-vs-negative bounds:
// str.len is always >= 0, so (>= (str.len e) 0) is true.
func (f *Factory) simplifyCmp(n *Term) *Term {
	a, b := n.Args[0], n.Args[1]
	// Canonicalize: constant offsets live only on the right-hand side, so
	// bounds like (> (+ n -2) (str.len s)) normalize to
	// (> n (+ (str.len s) 2)) and the moved constant becomes visible to
	// candidate seeding. Moving in one direction only keeps this
	// terminating.
	if hasConstPart(a) {
		rest, c := f.splitConst(a)
		if c != 0 && rest != nil {
			return f.simplifyCmp(f.mk(n.Op, SortBool, false, 0, "",
				[]*Term{rest, f.simplifyAdd(f.Add(b, f.Int(-c)))}))
		}
	}
	// Nonnegativity of lengths.
	if isNonNegative(a) && b.Op == OpIntConst {
		switch n.Op {
		case OpGe:
			if b.I <= 0 {
				return True()
			}
		case OpGt:
			if b.I < 0 {
				return True()
			}
		case OpLt:
			if b.I <= 0 {
				return False()
			}
		case OpLe:
			if b.I < 0 {
				return False()
			}
		}
	}
	return n
}

// hasConstPart reports whether t is an Add with a non-zero constant
// contribution alongside non-constant parts.
func hasConstPart(t *Term) bool {
	if t.Op != OpAdd {
		return false
	}
	hasConst, hasOther := false, false
	for _, p := range t.Args {
		if p.Op == OpIntConst {
			if p.I != 0 {
				hasConst = true
			}
		} else {
			hasOther = true
		}
	}
	return hasConst && hasOther
}

// splitConst separates an Add into its non-constant remainder and the
// summed constant part. rest is nil when everything was constant.
func (f *Factory) splitConst(t *Term) (rest *Term, c int64) {
	if t.Op != OpAdd {
		return t, 0
	}
	var parts []*Term
	for _, p := range t.Args {
		if p.Op == OpIntConst {
			c += p.I
		} else {
			parts = append(parts, p)
		}
	}
	if len(parts) == 0 {
		return nil, c
	}
	return f.Add(parts...), c
}

// isNonNegative reports terms that are always >= 0.
func isNonNegative(t *Term) bool {
	switch t.Op {
	case OpLen:
		return true
	case OpIntConst:
		return t.I >= 0
	case OpAdd, OpMul:
		for _, a := range t.Args {
			if !isNonNegative(a) {
				return false
			}
		}
		return true
	}
	return false
}
