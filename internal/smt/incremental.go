package smt

import "context"

// Session is an incremental assertion stack over a Solver, in the style of
// SMT-LIB's assert/push/pop. The detector's verdict for a sink is the
// conjunction of three constraints (taint ∧ extension ∧ reachability);
// a Session lets the scanner assert them in stages — extension first, then
// reachability under a push frame — so that:
//
//   - the simplified form of every asserted constraint is precooked into
//     the solver factory's memo tables the moment it is asserted, making
//     the eventual conjunction check rewrite only the novel structure;
//   - a constraint asserted again for a later sink of the same root (an
//     identical extension disjunction or reachability prefix) is
//     recognized by pointer identity and its prior simplification is
//     reused — the factory's IncrementalReuse counter reports exactly
//     that (it reads 0 on the corpus and the generated plugins, whose
//     roots seldom decide more than one sink);
//   - an assertion set that already folds to false (QuickUnsat) yields a
//     sound Unsat with no model search and without ever building or
//     simplifying the remaining constraints.
//
// Check semantics are defined by construction: CheckCtx decides exactly
// And(assertions...) — the same conjunction a monolithic Check would be
// handed — so a Session can never change verdicts, only skip repeated
// work. Sessions are not safe for concurrent use, matching the Solver's
// single-goroutine-per-root discipline.
type Session struct {
	solver  *Solver
	asserts []*Term
	marks   []int
}

// NewSession returns an empty assertion stack over s.
func (s *Solver) NewSession() *Session {
	return &Session{solver: s}
}

// Assert pushes a boolean constraint onto the current frame. The
// constraint is interned and its fixpoint simplification precooked into
// the factory memo (when one is installed), so later Check calls — and
// later Sessions on the same solver — pay for it only once. An assertion
// whose simplified form is already memoized counts toward
// FactoryStats.IncrementalReuse: the incremental stack reused earlier
// work instead of re-simplifying.
func (ss *Session) Assert(t *Term) {
	f := ss.solver.f
	t = f.Intern(t)
	if f != nil {
		if _, ok := f.fixMemo[t]; ok {
			f.stats.IncrementalReuse++
		} else {
			var discard Stats
			f.simplifyCounted(t, &discard)
		}
	}
	ss.asserts = append(ss.asserts, t)
}

// Push opens a new assertion frame.
func (ss *Session) Push() {
	ss.marks = append(ss.marks, len(ss.asserts))
}

// Pop discards every assertion made since the matching Push. Popping with
// no open frame clears the stack.
func (ss *Session) Pop() {
	if len(ss.marks) == 0 {
		ss.asserts = ss.asserts[:0]
		return
	}
	n := ss.marks[len(ss.marks)-1]
	ss.marks = ss.marks[:len(ss.marks)-1]
	ss.asserts = ss.asserts[:n]
}

// Assertions returns the number of live assertions.
func (ss *Session) Assertions() int { return len(ss.asserts) }

// conj builds the conjunction of the live assertions. The assertion slice
// is copied because Term retains the argument slice and the stack mutates
// on Pop/Assert.
func (ss *Session) conj() *Term {
	f := ss.solver.f
	switch len(ss.asserts) {
	case 0:
		return True()
	case 1:
		return ss.asserts[0]
	}
	return f.And(append([]*Term(nil), ss.asserts...)...)
}

// QuickUnsat reports whether the current assertion stack already
// simplifies to literal false — a sound Unsat that needs no model search.
// Because the fixpoint simplifier folds a false conjunct into false for
// any enclosing conjunction within its pass budget, QuickUnsat answering
// true guarantees a full Check of this stack (or any superset of it)
// would also answer Unsat; callers may skip asserting and checking the
// remaining constraints. Simplifier pass counts are accounted into st.
func (ss *Session) QuickUnsat(st *Stats) bool {
	g := ss.solver.f.simplifyCounted(ss.conj(), st)
	return g.Op == OpBoolConst && !g.B
}

// Check decides the conjunction of the live assertions.
func (ss *Session) Check() (Status, Model, Stats, error) {
	return ss.CheckCtx(context.Background())
}

// CheckCtx decides the conjunction of the live assertions with
// cancellation. The verdict, model, and Stats are exactly those of
// Solver.CheckCtx on And(assertions...).
func (ss *Session) CheckCtx(ctx context.Context) (Status, Model, Stats, error) {
	return ss.solver.CheckCtx(ctx, ss.conj())
}
