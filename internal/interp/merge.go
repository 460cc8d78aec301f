package interp

import (
	"repro/internal/heapgraph"
	"repro/internal/phpast"
	"repro/internal/sexpr"
)

// Statement-boundary path merging: the summary engine's answer to the
// paper's path explosion (ROADMAP item 3). Inside a summarized scope,
// after every statement, environments that are observably identical —
// same bindings except the function's dead variables, same control
// state — and whose pending path-condition suffixes are independent
// single-use literals are collapsed to the first representative. The
// dropped paths could never change a finding:
//
//   - Observable equality means every later statement computes the
//     same labels on both paths, so any future sink hit records the
//     same Src/Dst on either.
//   - Findings are deduplicated per sink site keeping the first
//     SATISFIABLE path (scanner.verifySinks), and environments keep
//     their fork order, so the inline engine would report the first
//     path's finding. The survivor here IS that first path, provided
//     its own suffix is satisfiable whenever any member's is — which
//     the literal rules below guarantee by construction: each suffix
//     is a conjunction of literals over distinct free single-use
//     condition symbols (or, for switch chains, equalities against
//     pairwise-distinct constants), hence satisfiable on its own, and
//     over symbols the shared prefix can only constrain to the same
//     first-arm literal the survivor carries.
//
// Anything outside that vocabulary — a condition involving a builtin
// call, a symbol used elsewhere, repeated or conflicting literals —
// makes the pair ineligible and both paths survive, exactly as under
// the inline engine.

// mergeFrame is the merge metadata of one summarized scope.
type mergeFrame struct {
	// depth is the Env.Depth() at which the scope's statements run;
	// merging only fires for env sets back at this depth (never inside
	// a nested, unsummarized callee).
	depth int
	// dead is the scope's dead-variable set (raw var names): bindings
	// ignored by the observable-equality comparison.
	dead map[string]bool
	// syms is the set of condition-symbol names ("s_$" + var) whose
	// literals may appear in a mergeable path-condition suffix.
	syms map[string]bool
}

// pushMergeScope enters a summarized scope for the function if summary
// mode is on and the function's summary permits merging. The returned
// func pops whatever was pushed (a no-op when nothing was).
func (in *Interp) pushMergeScope(fn *phpast.Func, envs heapgraph.EnvSet) func() {
	if in.opts.Summaries == nil || len(envs) == 0 {
		return func() {}
	}
	sum := in.opts.Summaries.Lookup(fn)
	if sum == nil || sum.Escapes {
		return func() {}
	}
	dead := make(map[string]bool, len(sum.DeadVars))
	for _, v := range sum.DeadVars {
		dead[v] = true
	}
	syms := make(map[string]bool, len(sum.MergeVars))
	for _, v := range sum.MergeVars {
		// The sticky varLabel binding names a variable's symbol
		// "s_$" + name on first unbound read.
		syms["s_$"+v] = true
	}
	in.mergeStack = append(in.mergeStack, mergeFrame{
		depth: envs[0].Depth(),
		dead:  dead,
		syms:  syms,
	})
	return func() { in.mergeStack = in.mergeStack[:len(in.mergeStack)-1] }
}

// mergeBoundary collapses observably equivalent paths at a statement
// boundary. Keep-first: the earliest member of each equivalence class
// survives, preserving the engine's path order.
func (in *Interp) mergeBoundary(envs heapgraph.EnvSet) heapgraph.EnvSet {
	if len(in.mergeStack) == 0 || len(envs) < 2 {
		return envs
	}
	mf := &in.mergeStack[len(in.mergeStack)-1]
	out := make(heapgraph.EnvSet, 0, len(envs))
	dropped := 0
	for _, e := range envs {
		merged := false
		for _, keep := range out {
			if in.mergeEquivalent(keep, e, mf) {
				merged = true
				break
			}
		}
		if merged {
			dropped++
		} else {
			out = append(out, e)
		}
	}
	if dropped == 0 {
		return envs
	}
	in.stats.PathsAvoided += int64(dropped)
	return out
}

// mergeEquivalent reports whether cand may be dropped in favor of keep.
func (in *Interp) mergeEquivalent(keep, cand *heapgraph.Env, mf *mergeFrame) bool {
	if keep.Depth() != mf.depth || cand.Depth() != mf.depth {
		return false
	}
	if !keep.EquivalentModulo(cand, mf.dead) {
		return false
	}
	return in.curMergeable(keep.Cur, cand.Cur, mf.syms)
}

// maxSpineWalk bounds the path-condition spine walk; deeper chains give
// up (no merge) rather than spend unbounded time.
const maxSpineWalk = 128

// curMergeable checks that the two path conditions share a common
// ancestor and that both divergent suffixes are conjunctions of
// eligible independent literals.
func (in *Interp) curMergeable(a, b heapgraph.Label, syms map[string]bool) bool {
	if a == b {
		return true
	}
	if a == heapgraph.Null || b == heapgraph.Null {
		return false
	}
	// Keeper spine: every node from a down through the And chain,
	// terminal included.
	spine := map[heapgraph.Label]bool{}
	node := a
	for i := 0; ; i++ {
		if i > maxSpineWalk {
			return false
		}
		spine[node] = true
		prev, _, ok := in.andParts(node)
		if !ok {
			break
		}
		node = prev
	}
	// Candidate walk until a spine node appears. A divergent terminal is
	// not a failure: ER seeds Cur with the chain's first condition
	// directly (no And wrapper), so two chains whose terminals differ
	// share exactly the empty pre-fork condition — both full chains,
	// terminals included, are then the suffixes ("rooted" below).
	ancestor := heapgraph.Null
	rooted := false
	bConds := make([]heapgraph.Label, 0, 8)
	node = b
	for i := 0; ; i++ {
		if i > maxSpineWalk {
			return false
		}
		if spine[node] {
			ancestor = node
			break
		}
		prev, cond, ok := in.andParts(node)
		if !ok {
			bConds = append(bConds, node)
			rooted = true
			break
		}
		bConds = append(bConds, cond)
		node = prev
	}
	// Keeper suffix: conds above the ancestor, or the whole chain
	// (terminal included) when the suffixes are rooted.
	aSuffix := make([]heapgraph.Label, 0, 8)
	node = a
	for rooted || node != ancestor {
		prev, cond, ok := in.andParts(node)
		if !ok {
			if !rooted {
				return false
			}
			aSuffix = append(aSuffix, node)
			break
		}
		aSuffix = append(aSuffix, cond)
		node = prev
	}
	return in.suffixEligible(aSuffix, syms) && in.suffixEligible(bConds, syms)
}

// andParts decomposes an ER-built conjunction node into (prefix, cond).
func (in *Interp) andParts(l heapgraph.Label) (prev, cond heapgraph.Label, ok bool) {
	if l == heapgraph.Null {
		return heapgraph.Null, heapgraph.Null, false
	}
	o, ok := in.g.Find(l)
	if !ok || o.Kind != heapgraph.KindOp || o.Name != "And" {
		return heapgraph.Null, heapgraph.Null, false
	}
	edges := in.g.Edges(l)
	if len(edges) != 2 {
		return heapgraph.Null, heapgraph.Null, false
	}
	return edges[0], edges[1], true
}

// condLiteral is one classified suffix condition.
type condLiteral struct {
	sym string // condition-symbol name
	eq  bool   // equality literal (vs bare truthiness)
	neg bool
	val sexpr.Expr // comparand for equality literals
}

// suffixEligible classifies every cond and applies the per-symbol
// satisfiability rules: bare literals at most once per symbol; equality
// literals with at most one positive and pairwise-distinct comparands;
// no mixing of the two forms on one symbol.
func (in *Interp) suffixEligible(conds []heapgraph.Label, syms map[string]bool) bool {
	lits := make([]condLiteral, 0, len(conds))
	for _, c := range conds {
		lit, ok := in.classifyCond(c, syms, false)
		if !ok {
			return false
		}
		lits = append(lits, lit)
	}
	for i, a := range lits {
		for _, b := range lits[:i] {
			if a.sym != b.sym {
				continue
			}
			if a.eq != b.eq {
				return false // mixed forms on one symbol
			}
			if !a.eq {
				return false // repeated bare literal
			}
			if !a.neg && !b.neg {
				return false // two positive equalities
			}
			if sexprEqual(a.val, b.val) {
				return false // same comparand twice (c and/or !c)
			}
		}
	}
	return true
}

// classifyCond matches one condition label against the literal
// vocabulary: sym, !sym, sym == const, !(sym == const).
func (in *Interp) classifyCond(l heapgraph.Label, syms map[string]bool, negated bool) (condLiteral, bool) {
	o, ok := in.g.Find(l)
	if !ok {
		return condLiteral{}, false
	}
	switch o.Kind {
	case heapgraph.KindSymbol:
		if !syms[o.Name] {
			return condLiteral{}, false
		}
		return condLiteral{sym: o.Name, neg: negated}, true
	case heapgraph.KindOp:
		edges := in.g.Edges(l)
		switch o.Name {
		case "!":
			if negated || len(edges) != 1 {
				return condLiteral{}, false // double negation: out of vocabulary
			}
			return in.classifyCond(edges[0], syms, true)
		case "==":
			if len(edges) != 2 {
				return condLiteral{}, false
			}
			sym, val, ok := in.eqOperands(edges[0], edges[1], syms)
			if !ok {
				return condLiteral{}, false
			}
			return condLiteral{sym: sym, eq: true, neg: negated, val: val}, true
		}
	}
	return condLiteral{}, false
}

// eqOperands accepts symbol==concrete in either operand order, with a
// scalar comparand.
func (in *Interp) eqOperands(x, y heapgraph.Label, syms map[string]bool) (string, sexpr.Expr, bool) {
	ox, xok := in.g.Find(x)
	oy, yok := in.g.Find(y)
	if !xok || !yok {
		return "", nil, false
	}
	if ox.Kind == heapgraph.KindSymbol && syms[ox.Name] && oy.Kind == heapgraph.KindConcrete && scalarVal(oy.Val) {
		return ox.Name, oy.Val, true
	}
	if oy.Kind == heapgraph.KindSymbol && syms[oy.Name] && ox.Kind == heapgraph.KindConcrete && scalarVal(ox.Val) {
		return oy.Name, ox.Val, true
	}
	return "", nil, false
}

// scalarVal guards the comparand comparison: only scalar sexpr values
// are safely comparable with ==.
func scalarVal(v sexpr.Expr) bool {
	switch v.(type) {
	case sexpr.StrVal, sexpr.IntVal, sexpr.BoolVal, sexpr.FloatVal, sexpr.NullVal:
		return true
	}
	return false
}

func sexprEqual(a, b sexpr.Expr) bool {
	if !scalarVal(a) || !scalarVal(b) {
		return false
	}
	return a == b
}
