package smt

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// This file checks the search plan (plan.go) against Eval, the reference
// evaluator. Two properties are checked on random cubes over every op:
//
//   - Per depth: after binding a candidate at depth k, the plan prunes
//     exactly when some conjunct scheduled at depth k errors or is false
//     under Eval, and a conjunct is scheduled at the depth where its last
//     variable binds.
//   - Per search: Solver.search returns the same model, assignment count
//     and verification count as a plain depth-first search that
//     re-evaluates, with Eval, every conjunct whose variables are all
//     bound at every depth.

var (
	planStrs = []string{"", "a", "ab", "ba", ".php", "zip", "7", "0042", "99999999999999999999", "x1"}
	planInts = []int64{-3, -1, 0, 1, 2, 3, 100}
	planVars = []struct {
		name string
		sort Sort
	}{
		{"s1", SortString}, {"s2", SortString}, {"s3", SortString},
		{"n1", SortInt}, {"n2", SortInt}, {"b1", SortBool},
	}
)

// planGen builds random terms over every op. Variables are always built
// fresh, so duplicate occurrences are distinct pointers unless the term
// is interned afterwards; earlier terms are reused now and then, so
// subterms are shared by pointer.
type planGen struct {
	r      *rand.Rand
	shared [3][]*Term
}

func newPlanGen(seed int64) *planGen {
	return &planGen{r: rand.New(rand.NewSource(seed))}
}

func (g *planGen) term(s Sort, depth int) *Term {
	if ts := g.shared[s]; len(ts) > 0 && g.r.Intn(6) == 0 {
		return ts[g.r.Intn(len(ts))]
	}
	var t *Term
	switch {
	case depth <= 0 || g.r.Intn(4) == 0:
		t = g.leaf(s)
	case s == SortBool:
		t = g.boolOp(depth - 1)
	case s == SortInt:
		t = g.intOp(depth - 1)
	default:
		t = g.strOp(depth - 1)
	}
	g.shared[s] = append(g.shared[s], t)
	return t
}

// anySort is a term of a random sort: an argument read at the wrong sort.
func (g *planGen) anySort(depth int) *Term {
	return g.term(Sort(g.r.Intn(3)), depth)
}

func (g *planGen) leaf(s Sort) *Term {
	if g.r.Intn(2) == 0 {
		v := planVars[g.r.Intn(len(planVars))]
		for v.sort != s && g.r.Intn(10) != 0 {
			v = planVars[g.r.Intn(len(planVars))]
		}
		// Occasionally a name bound at another sort: Eval rejects it.
		return Var(v.name, s)
	}
	switch s {
	case SortBool:
		return Bool(g.r.Intn(2) == 0)
	case SortInt:
		return Int(planInts[g.r.Intn(len(planInts))])
	default:
		return Str(planStrs[g.r.Intn(len(planStrs))])
	}
}

func (g *planGen) args(s Sort, depth, lo, hi int) []*Term {
	out := make([]*Term, lo+g.r.Intn(hi-lo+1))
	for i := range out {
		out[i] = g.term(s, depth)
	}
	return out
}

func (g *planGen) boolOp(d int) *Term {
	switch g.r.Intn(14) {
	case 0:
		return Not(g.term(SortBool, d))
	case 1:
		return And(g.args(SortBool, d, 2, 5)...)
	case 2:
		return Or(g.args(SortBool, d, 2, 5)...)
	case 3:
		s := Sort(g.r.Intn(3))
		return Eq(g.term(s, d), g.term(s, d))
	case 4:
		return Eq(g.anySort(d), g.anySort(d)) // often ill-sorted
	case 5:
		return Lt(g.term(SortInt, d), g.term(SortInt, d))
	case 6:
		return Le(g.term(SortInt, d), g.term(SortInt, d))
	case 7:
		return Gt(g.term(SortInt, d), g.anySort(d))
	case 8:
		return Ge(g.term(SortInt, d), g.term(SortInt, d))
	case 9:
		return SuffixOf(g.term(SortString, d), g.term(SortString, d))
	case 10:
		return PrefixOf(g.term(SortString, d), g.term(SortString, d))
	case 11:
		return Contains(g.term(SortString, d), g.anySort(d))
	case 12:
		return Ite(g.term(SortBool, d), g.term(SortBool, d), g.anySort(d))
	default:
		if g.r.Intn(4) == 0 {
			return &Term{Op: Op(99), sort: SortBool, Args: g.args(SortBool, d, 0, 2)}
		}
		return Eq(Ite(g.term(SortBool, d), g.term(SortString, d), g.term(SortInt, d)), g.anySort(d))
	}
}

func (g *planGen) intOp(d int) *Term {
	switch g.r.Intn(9) {
	case 0:
		return Add(g.args(SortInt, d, 0, 5)...)
	case 1:
		return Sub(g.term(SortInt, d), g.term(SortInt, d))
	case 2:
		return Mul(g.args(SortInt, d, 0, 5)...)
	case 3:
		return Neg(g.anySort(d))
	case 4:
		return Len(g.term(SortString, d))
	case 5:
		return IndexOf(g.term(SortString, d), g.term(SortString, d), g.term(SortInt, d))
	case 6:
		return ToInt(g.term(SortString, d))
	case 7:
		return Ite(g.term(SortBool, d), g.term(SortInt, d), g.term(SortInt, d))
	default:
		return Ite(g.term(SortBool, d), g.term(SortInt, d), g.term(SortString, d))
	}
}

func (g *planGen) strOp(d int) *Term {
	switch g.r.Intn(8) {
	case 0:
		return Concat(g.args(SortString, d, 2, 5)...)
	case 1:
		return Replace(g.term(SortString, d), g.term(SortString, d), g.term(SortString, d))
	case 2:
		return Substr(g.term(SortString, d), g.term(SortInt, d), g.term(SortInt, d))
	case 3:
		return At(g.term(SortString, d), g.term(SortInt, d))
	case 4:
		return FromInt(g.term(SortInt, d))
	case 5:
		return Ite(g.term(SortBool, d), g.term(SortString, d), g.term(SortString, d))
	case 6:
		return Ite(g.term(SortBool, d), g.term(SortString, d), g.term(SortInt, d))
	default:
		return Concat(g.anySort(d), g.term(SortString, d))
	}
}

// cube returns 1–5 random conjuncts, interned through a fresh factory
// for odd seeds so that the plan sees pointer-shared variables too.
func (g *planGen) cube(seed int64, depth int) []*Term {
	lits := g.args(SortBool, depth, 1, 5)
	if seed%2 != 0 {
		f := NewFactory()
		for i, l := range lits {
			lits[i] = f.Intern(l)
		}
	}
	return lits
}

// valueReg is v in register form, as the search binds it.
func valueReg(v Value) reg {
	return reg{sort: v.Sort, b: v.B, i: v.I, s: []byte(v.S)}
}

// planCands are the per-depth check's candidates for a slot of sort s.
func planCands(s Sort) []Value {
	switch s {
	case SortBool:
		return []Value{BoolValue(true), BoolValue(false)}
	case SortInt:
		out := []Value{IntValue(4), IntValue(-2)}
		for _, i := range planInts {
			out = append(out, IntValue(i))
		}
		return out
	default:
		out := []Value{StrValue("aaaa"), StrValue("zip.php"), StrValue("ab.zip")}
		for _, s := range planStrs {
			out = append(out, StrValue(s))
		}
		return out
	}
}

// checkPlanDepths compiles lits with their variables in a random order
// and drives the plan through a random walk of bindings: each step binds
// a random candidate at a depth at most one below the deepest depth that
// passed, and the plan must prune exactly when Eval errors or is false on
// some conjunct scheduled at that depth.
func checkPlanDepths(t testing.TB, r *rand.Rand, lits []*Term, steps int) {
	t.Helper()
	vars := Vars(And(lits...))
	n := len(vars)
	if n == 0 {
		return // the search decides ground cubes with Eval directly
	}
	slots := make([]*Term, n)
	depthOf := map[string]int{}
	for k, i := range r.Perm(n) {
		slots[k] = vars[i]
		depthOf[vars[i].S] = k
	}
	p := compilePlan(lits, slots, 0)
	for i, l := range lits {
		want := 0
		for _, v := range Vars(l) {
			want = max(want, depthOf[v.S])
		}
		if p.litDepth[i] != want {
			t.Fatalf("conjunct %d %s scheduled at depth %d, want %d", i, l, p.litDepth[i], want)
		}
	}
	bound := make([]Value, n)
	passed := -1
	for s := 0; s < steps; s++ {
		k := r.Intn(min(passed+2, n))
		cands := planCands(slotSort(slots[k]))
		bound[k] = cands[r.Intn(len(cands))]
		got := p.try(k, valueReg(bound[k]))

		m := Model{}
		for d := 0; d <= k; d++ {
			m[slots[d].S] = bound[d]
		}
		want := true
		for i, l := range lits {
			if p.litDepth[i] != k {
				continue
			}
			if val, err := Eval(l, m); err != nil || !val.B {
				want = false
			}
		}
		if got != want {
			t.Fatalf("depth %d under %v: plan passes=%v, Eval passes=%v\nconjuncts %v", k, m, got, want, lits)
		}
		passed = k - 1
		if got {
			passed = k
		}
	}
}

// planRefSearch is the bounded search without a plan, with the variable
// order and candidates Solver.search uses: at every depth it evaluates,
// with Eval, every conjunct whose variables are all bound.
func planRefSearch(s *Solver, conj, f *Term, budget int) (Model, int, int) {
	vars := Vars(conj)
	pool := newCandidatePool(conj, s.opts)
	cands := make([][]Value, len(vars))
	for i, v := range vars {
		cands[i] = pool.forVar(v)
	}
	order := make([]int, len(vars))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ { // stable insertion sort by domain size
		for j := i; j > 0 && len(cands[order[j]]) < len(cands[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	lits := []*Term{conj}
	if conj.Op == OpAnd {
		lits = conj.Args
	}
	m := Model{}
	bound := func(l *Term) bool {
		for _, v := range Vars(l) {
			if _, ok := m[v.S]; !ok {
				return false
			}
		}
		return true
	}
	tried, evals := 0, 0
	var dfs func(k int) Model
	dfs = func(k int) Model {
		if tried >= budget {
			return nil
		}
		if k == len(order) {
			tried++
			evals++
			full := Model{}
			for n, v := range m {
				full[n] = v
			}
			if s.verify(f, full) {
				return full
			}
			return nil
		}
		vi := order[k]
		for _, c := range cands[vi] {
			if tried >= budget {
				return nil
			}
			m[vars[vi].S] = c
			ok := true
			for _, l := range lits {
				if !bound(l) {
					continue
				}
				if v, err := Eval(l, m); err != nil || !v.B {
					ok = false
					break
				}
			}
			if !ok {
				tried++
				continue
			}
			if res := dfs(k + 1); res != nil {
				return res
			}
		}
		delete(m, vars[vi].S)
		return nil
	}
	res := dfs(0)
	return res, tried, evals
}

// checkSearchMatchesRef runs Solver.search on And(lits) against
// planRefSearch, with f = And(lits, extra) so that some complete
// assignments fail verification.
func checkSearchMatchesRef(t testing.TB, lits []*Term, extra *Term, budget int) {
	t.Helper()
	conj := And(lits...)
	if len(Vars(conj)) == 0 {
		return
	}
	f := And(conj, extra)
	s := NewSolver(Options{MaxStrCandidates: 8, MaxIntCandidates: 6})
	wantM, wantTried, wantEvals := planRefSearch(s, conj, f, budget)
	var st Stats
	gotM, gotTried := s.search(context.Background(), conj, f, budget, s.opts, &st)
	if gotTried != wantTried || st.VerifyEvals != wantEvals || len(gotM) != len(wantM) || (gotM == nil) != (wantM == nil) {
		t.Fatalf("search: tried %d evals %d model %v; reference: tried %d evals %d model %v\ncube %s",
			gotTried, st.VerifyEvals, gotM, wantTried, wantEvals, wantM, conj)
	}
	for k, v := range wantM {
		if gotM[k] != v {
			t.Fatalf("model differs at %s: %v vs %v\ncube %s", k, gotM[k], v, conj)
		}
	}
}

func checkSearchPlan(t testing.TB, seed int64, depth int) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("seed %d, depth %d", seed, depth)
		}
	}()
	g := newPlanGen(seed)
	lits := g.cube(seed, depth)
	r := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	checkPlanDepths(t, r, lits, 200)
	checkSearchMatchesRef(t, lits, g.term(SortBool, 1), 1+r.Intn(3000))
}

// TestSearchPlanMatchesEval is the fixed-seed property test.
func TestSearchPlanMatchesEval(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		checkSearchPlan(t, seed, 1+int(seed%4))
	}
}

// FuzzSearchPlan drives the same checks from fuzzed (seed, depth) pairs.
func FuzzSearchPlan(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(20261017), uint8(3))
	f.Add(int64(-5), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, depth uint8) {
		checkSearchPlan(t, seed, int(depth%5))
	})
}

// TestSearchPlanGroundAndShared pins hand-picked shapes: a ground false
// conjunct prunes every candidate at depth 0, a shared subterm gets one
// register, and two occurrences of one variable share its slot on the
// direct path.
func TestSearchPlanGroundAndShared(t *testing.T) {
	x1, x2 := Var("x", SortString), Var("x", SortString)
	y := Var("y", SortString)
	shared := Concat(x1, Str("."), y)
	lits := []*Term{
		Eq(Len(Str("ab")), Int(3)), // ground and false
		SuffixOf(Str(".php"), shared),
		Eq(x2, Str("a")),
		PrefixOf(Str("a"), shared),
	}
	p := compilePlan(lits, []*Term{x1, y}, 0)
	if got := p.litDepth; got[0] != 0 || got[1] != 1 || got[2] != 0 || got[3] != 1 {
		t.Fatalf("litDepth = %v, want [0 1 0 1]", got)
	}
	if p.try(0, valueReg(StrValue("a"))) {
		t.Fatal("a false ground conjunct must prune at depth 0")
	}
	concats := 0
	for _, n := range p.nodes {
		if n.op == OpConcat {
			concats++
		}
	}
	if concats != 1 {
		t.Fatalf("shared concat compiled into %d nodes, want 1", concats)
	}
	if len(p.slot) != 2 {
		t.Fatalf("%d slots for two variables", len(p.slot))
	}
}

// countdownCtx is a context whose Err starts returning context.Canceled
// after its k-th call.
type countdownCtx struct {
	context.Context
	calls, k int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.k {
		return context.Canceled
	}
	return nil
}

// portfolioCube is the cube of the portfolio-showcase corpus app: the
// upload name must equal "portfolio.zip", and the destination, with
// "zip" replaced by "dat", must end in ".php". No candidate assignment
// satisfies it, and the default budget runs out before the candidate
// space does.
func portfolioCube(f *Factory) *Term {
	path := f.Var("s_wp_upload_path", SortString)
	name := f.Var("s_name_upload", SortString)
	ext := f.Var("s_ext_upload", SortString)
	base := f.Concat(name, f.Str("."), ext)
	dst := f.Concat(path, f.Str("/"), f.Replace(base, f.Str("zip"), f.Str("dat")))
	return f.And(f.SuffixOf(f.Str(".php"), dst), f.Eq(base, f.Str("portfolio.zip")))
}

// TestSearchPollsContext: a search that never reaches a complete
// assignment (every candidate is pruned at the last depth) must still
// notice cancellation within two poll intervals.
func TestSearchPollsContext(t *testing.T) {
	for _, f := range []*Factory{nil, NewFactory()} {
		s := NewSolverWithFactory(Options{}, f)
		// CheckCtx's own checks (entry and first cube) pass; the search's
		// first poll sees the cancellation.
		ctx := &countdownCtx{Context: context.Background(), k: 2}
		status, _, st, err := s.CheckCtx(ctx, portfolioCube(f))
		if status != Unknown || !errors.Is(err, context.Canceled) {
			t.Fatalf("CheckCtx = %v, %v; want unknown, context.Canceled", status, err)
		}
		if limit := 2 * (ctxPollMask + 1); st.Assignments >= limit {
			t.Fatalf("cancelled search tried %d assignments, want < %d", st.Assignments, limit)
		}
	}
}

// TestSearchPortfolioBudget pins the uncancelled search on the same cube:
// it uses up the default budget and answers Unknown.
func TestSearchPortfolioBudget(t *testing.T) {
	for _, f := range []*Factory{nil, NewFactory()} {
		s := NewSolverWithFactory(Options{}, f)
		status, _, st, err := s.Check(portfolioCube(f))
		if status != Unknown || !errors.Is(err, ErrBudget) {
			t.Fatalf("Check = %v, %v; want unknown, budget", status, err)
		}
		if st.Assignments != 500000 {
			t.Fatalf("tried %d assignments, want the default budget 500000", st.Assignments)
		}
	}
}
