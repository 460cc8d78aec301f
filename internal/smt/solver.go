package smt

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// Status is a solver verdict.
type Status int

// Verdicts.
const (
	// Unknown means the solver exceeded a budget before finding a model or
	// exhausting its bounded search space.
	Unknown Status = iota
	// Sat means a model was found and verified by evaluation, or the
	// formula rewrote to true (the model is then its variables' defaults).
	Sat
	// Unsat means the formula was refuted: either the simplifier reduced it
	// to false, or the bounded candidate space for every DNF cube was
	// exhausted. The latter is complete only for the candidate space
	// documented in candidates.go (see package comment).
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Stats reports the work performed by one Check call. All fields count
// work, not time, and are deterministic for a given formula and
// options — the scanner aggregates them into its per-app metric set.
type Stats struct {
	Cubes       int // DNF cubes examined
	Assignments int // candidate assignments (models) tried
	Simplified  int // node count after simplification
	// Candidates is the number of candidate values seeded across the
	// variables of every searched cube (the size of the bounded model
	// space actually enumerated).
	Candidates int
	// VerifyEvals counts full-formula verification evaluations — every
	// would-be model is re-checked against the original formula.
	VerifyEvals int
	// Rewrites counts simplifier passes that changed the term (across
	// the top-level simplification and every per-cube simplification).
	Rewrites int
}

// Accum adds b's work counters into a. Simplified is overwritten (it is a
// measurement of the latest formula, not a running total).
func (a *Stats) Accum(b Stats) {
	a.Cubes += b.Cubes
	a.Assignments += b.Assignments
	a.Simplified = b.Simplified
	a.Candidates += b.Candidates
	a.VerifyEvals += b.VerifyEvals
	a.Rewrites += b.Rewrites
}

// Options configures a Solver. The zero value selects defaults suitable for
// UChecker's constraints.
type Options struct {
	// MaxCubes bounds the DNF expansion; beyond it Check falls back to
	// whole-formula enumeration. Default 4096.
	MaxCubes int
	// MaxAssignments bounds the total candidate assignments tried across
	// all cubes. Default 500000.
	MaxAssignments int
	// MaxStrCandidates bounds the per-variable string candidate set.
	// Default 96.
	MaxStrCandidates int
	// MaxIntCandidates bounds the per-variable integer candidate set.
	// Default 48.
	MaxIntCandidates int
}

func (o Options) withDefaults() Options {
	if o.MaxCubes == 0 {
		o.MaxCubes = 4096
	}
	if o.MaxAssignments == 0 {
		o.MaxAssignments = 500000
	}
	if o.MaxStrCandidates == 0 {
		o.MaxStrCandidates = 96
	}
	if o.MaxIntCandidates == 0 {
		o.MaxIntCandidates = 48
	}
	return o
}

// Solver decides formulas in the UChecker fragment. The zero value is ready
// to use with default options.
type Solver struct {
	opts Options
	// f is the hash-consing factory the solver routes term construction
	// and simplification through. nil means no interning (direct
	// construction) — semantics are identical either way, only the amount
	// of recomputation differs.
	f *Factory
}

// NewSolver returns a Solver with the given options.
func NewSolver(opts Options) *Solver {
	return &Solver{opts: opts.withDefaults()}
}

// NewSolverWithFactory returns a Solver that interns and memoizes through
// f. A nil f behaves exactly like NewSolver.
func NewSolverWithFactory(opts Options, f *Factory) *Solver {
	return &Solver{opts: opts.withDefaults(), f: f}
}

// Factory returns the solver's factory (possibly nil).
func (s *Solver) Factory() *Factory { return s.f }

// ErrBudget is returned (wrapped) when a budget was exhausted; the
// accompanying status is Unknown.
var ErrBudget = errors.New("smt: budget exhausted")

// ctxPollMask controls how often the candidate enumeration polls its
// context: every ctxPollMask+1 assignments (a power of two minus one).
const ctxPollMask = 0x3ff

// Check decides the boolean term f. On Sat the returned model has been
// verified by evaluating f, unless f rewrote to true. On Unsat the model
// is nil.
func (s *Solver) Check(f *Term) (Status, Model, Stats, error) {
	return s.CheckCtx(context.Background(), f)
}

// CheckCtx is Check with cancellation: the cube loop and the candidate
// enumeration poll ctx and abort with status Unknown and ctx's error once
// the context is done.
func (s *Solver) CheckCtx(ctx context.Context, f *Term) (Status, Model, Stats, error) {
	opts := s.opts.withDefaults()
	var st Stats
	if err := ctx.Err(); err != nil {
		return Unknown, nil, st, err
	}
	if f.Sort() != SortBool {
		return Unknown, nil, st, fmt.Errorf("smt: Check on non-boolean term of sort %v", f.Sort())
	}
	// Canonicalize the formula against the factory so repeat checks of
	// structurally equal formulas (and shared subterms of fresh ones) hit
	// the memo tables. Identity when the factory is nil or f was already
	// built through it.
	f = s.f.Intern(f)
	g := s.f.simplifyCounted(f, &st)
	st.Simplified = Size(g)
	if g.Op == OpBoolConst {
		if g.B {
			m := Model{}
			for _, v := range Vars(f) {
				m[v.S] = defaultValue(v.Sort())
			}
			return Sat, m, st, nil
		}
		return Unsat, nil, st, nil
	}

	cubes, ok := dnf(s.f.nnf(g, false), opts.MaxCubes)
	if !ok {
		// DNF blowup: whole-formula enumeration, Sat-only.
		model, tried := s.search(ctx, g, g, opts.MaxAssignments, opts, &st)
		st.Assignments += tried
		if model != nil {
			return Sat, model, st, nil
		}
		if err := ctx.Err(); err != nil {
			return Unknown, nil, st, err
		}
		return Unknown, nil, st, fmt.Errorf("%w: DNF exceeded %d cubes", ErrBudget, opts.MaxCubes)
	}

	budget := opts.MaxAssignments
	exhausted := true
	for _, cube := range cubes {
		if err := ctx.Err(); err != nil {
			return Unknown, nil, st, err
		}
		st.Cubes++
		conj := s.f.simplifyCounted(s.f.And(cube...), &st)
		if conj.Op == OpBoolConst {
			if conj.B {
				// A cube with no residual constraints: any assignment works;
				// produce the empty model extended for f's variables.
				m := Model{}
				for _, v := range Vars(f) {
					m[v.S] = defaultValue(v.Sort())
				}
				st.VerifyEvals++
				if s.verify(f, m) {
					return Sat, m, st, nil
				}
				continue
			}
			continue // cube is false
		}
		if budget <= 0 {
			exhausted = false
			break
		}
		model, tried := s.search(ctx, conj, f, budget, opts, &st)
		budget -= tried
		st.Assignments += tried
		if model != nil {
			return Sat, model, st, nil
		}
		if budget <= 0 {
			exhausted = false
		}
	}
	if err := ctx.Err(); err != nil {
		return Unknown, nil, st, err
	}
	if exhausted {
		return Unsat, nil, st, nil
	}
	return Unknown, nil, st, fmt.Errorf("%w: %d assignments tried", ErrBudget, st.Assignments)
}

func defaultValue(s Sort) Value {
	switch s {
	case SortBool:
		return BoolValue(false)
	case SortInt:
		return IntValue(0)
	default:
		return StrValue("")
	}
}

// verify confirms a model satisfies the original formula, extending it with
// defaults for variables the cube never mentioned.
func (s *Solver) verify(f *Term, m Model) bool {
	for _, v := range Vars(f) {
		if _, ok := m[v.S]; !ok {
			m[v.S] = defaultValue(v.Sort())
		}
	}
	val, err := Eval(f, m)
	return err == nil && val.Sort == SortBool && val.B
}

// search enumerates candidate assignments for the variables of conj and
// returns the first model that satisfies the full original formula f, or
// nil. It reports how many assignments were tried: every partial
// assignment a conjunct prunes counts once, and so does every complete
// assignment handed to verification. The conjuncts are compiled into a
// searchPlan (plan.go), which checks each one at the depth where its last
// variable binds and evaluates candidates in place. ctx is polled each
// time the count passes a multiple of ctxPollMask+1; cancellation aborts
// the enumeration (returning nil, like exhaustion — the caller
// distinguishes via ctx.Err()).
func (s *Solver) search(ctx context.Context, conj, f *Term, budget int, opts Options, st *Stats) (Model, int) {
	vars := Vars(conj)
	if len(vars) == 0 {
		v, err := Eval(conj, nil)
		if err == nil && v.B {
			m := Model{}
			st.VerifyEvals++
			if s.verify(f, m) {
				return m, 1
			}
		}
		return nil, 1
	}

	// Order variables: strings last tend to have bigger domains; put
	// smaller domains first for better pruning.
	cands := make([][]Value, len(vars))
	pool := newCandidatePool(conj, opts)
	for i, v := range vars {
		cands[i] = pool.forVar(v)
		st.Candidates += len(cands[i])
	}
	order := make([]int, len(vars))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(cands[order[a]]) < len(cands[order[b]]) })

	// Literals for pruning: the conjuncts of conj.
	var lits []*Term
	if conj.Op == OpAnd {
		lits = conj.Args
	} else {
		lits = []*Term{conj}
	}
	slots := make([]*Term, len(order))
	for k, vi := range order {
		slots[k] = vars[vi]
	}
	p := compilePlan(lits, slots, Size(conj))

	// Depth-first over the candidates: idx[k] is the candidate bound at
	// depth k.
	n := len(order)
	idx := make([]int, n)
	tried := 0
	nextPoll := ctxPollMask + 1
	for k := 0; ; {
		c := cands[order[k]]
		if idx[k] == len(c) {
			if k == 0 {
				return nil, tried
			}
			k--
			idx[k]++
			continue
		}
		if tried >= budget {
			return nil, tried
		}
		if tried >= nextPoll {
			nextPoll = (tried | ctxPollMask) + 1
			if ctx.Err() != nil {
				return nil, tried
			}
		}
		if !p.try(k, pool.reg(&c[idx[k]], idx[k])) {
			tried++
			idx[k]++
			continue
		}
		if k+1 < n {
			k++
			idx[k] = 0
			continue
		}
		// Every conjunct holds: verify extends the model with defaults
		// for variables of f that the cube never constrained.
		tried++
		m := make(Model, n)
		for d, vi := range order {
			m[vars[vi].S] = cands[vi][idx[d]]
		}
		st.VerifyEvals++
		if s.verify(f, m) {
			return m, tried
		}
		idx[k]++
	}
}

// --- normal forms ---

// nnf converts a boolean term to negation normal form. neg indicates the
// polarity. Non-boolean-structured atoms (equalities, string predicates)
// are kept as literals, negated with Not. Construction routes through the
// factory (nil-safe) so NNF of shared subtrees yields shared results.
func (f *Factory) nnf(t *Term, neg bool) *Term {
	switch t.Op {
	case OpBoolConst:
		return Bool(t.B != neg)
	case OpNot:
		return f.nnf(t.Args[0], !neg)
	case OpAnd:
		args := make([]*Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = f.nnf(a, neg)
		}
		if neg {
			return f.Or(args...)
		}
		return f.And(args...)
	case OpOr:
		args := make([]*Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = f.nnf(a, neg)
		}
		if neg {
			return f.And(args...)
		}
		return f.Or(args...)
	case OpIte:
		if t.Sort() == SortBool {
			c, a, b := t.Args[0], t.Args[1], t.Args[2]
			// ite(c,a,b) == (c∧a) ∨ (¬c∧b)
			e := f.Or(f.And(c, a), f.And(f.Not(c), b))
			return f.nnf(e, neg)
		}
		fallthrough
	case OpLt:
		if neg {
			return f.Ge(t.Args[0], t.Args[1])
		}
		return t
	case OpLe:
		if neg {
			return f.Gt(t.Args[0], t.Args[1])
		}
		return t
	case OpGt:
		if neg {
			return f.Le(t.Args[0], t.Args[1])
		}
		return t
	case OpGe:
		if neg {
			return f.Lt(t.Args[0], t.Args[1])
		}
		return t
	default:
		if neg {
			return f.Not(t)
		}
		return t
	}
}

// nnf is the non-interned NNF entry point, kept for tests and the
// nil-factory path.
func nnf(t *Term, neg bool) *Term { return (*Factory)(nil).nnf(t, neg) }

// dnf converts an NNF term to a list of cubes (conjunctions of literals).
// ok is false if the expansion exceeds maxCubes.
func dnf(t *Term, maxCubes int) ([][]*Term, bool) {
	switch t.Op {
	case OpAnd:
		cubes := [][]*Term{nil}
		for _, a := range t.Args {
			sub, ok := dnf(a, maxCubes)
			if !ok {
				return nil, false
			}
			var next [][]*Term
			for _, c := range cubes {
				for _, s := range sub {
					merged := make([]*Term, 0, len(c)+len(s))
					merged = append(merged, c...)
					merged = append(merged, s...)
					next = append(next, merged)
					if len(next) > maxCubes {
						return nil, false
					}
				}
			}
			cubes = next
		}
		return cubes, true
	case OpOr:
		var cubes [][]*Term
		for _, a := range t.Args {
			sub, ok := dnf(a, maxCubes)
			if !ok {
				return nil, false
			}
			cubes = append(cubes, sub...)
			if len(cubes) > maxCubes {
				return nil, false
			}
		}
		return cubes, true
	default:
		return [][]*Term{{t}}, true
	}
}
