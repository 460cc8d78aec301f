package smt

import (
	"math/rand"
	"testing"
)

// This file cross-checks the hash-consing factory against the direct
// (package-constructor) pipeline: interned and un-interned construction
// must agree on structure, evaluation, simplification, solver verdicts,
// and — because the scanner's determinism guarantee depends on it — on
// the solver's work counters, node for node and pass for pass.

// genTerm builds a random boolean formula through the given factory. A
// nil factory exercises the direct-allocation fallback; the same seed
// therefore yields structurally identical formulas for any factory.
type factoryGen struct {
	r *rand.Rand
	f *Factory
}

func (g *factoryGen) strExpr(depth int) *Term {
	switch g.r.Intn(4) {
	case 0:
		return g.f.Var("s1", SortString)
	case 1:
		return g.f.Var("s2", SortString)
	case 2:
		return g.f.Str(diffStrPool[g.r.Intn(len(diffStrPool))])
	default:
		if depth <= 0 {
			return g.f.Str(diffStrPool[g.r.Intn(len(diffStrPool))])
		}
		return g.f.Concat(g.strExpr(depth-1), g.strExpr(depth-1))
	}
}

func (g *factoryGen) intExpr(depth int) *Term {
	switch g.r.Intn(4) {
	case 0:
		return g.f.Var("n", SortInt)
	case 1:
		return g.f.Int(diffIntPool[g.r.Intn(len(diffIntPool))])
	case 2:
		return g.f.Len(g.strExpr(depth - 1))
	default:
		if depth <= 0 {
			return g.f.Int(diffIntPool[g.r.Intn(len(diffIntPool))])
		}
		return g.f.Add(g.intExpr(depth-1), g.intExpr(depth-1))
	}
}

func (g *factoryGen) atom(depth int) *Term {
	switch g.r.Intn(6) {
	case 0:
		return g.f.Eq(g.strExpr(depth), g.strExpr(depth))
	case 1:
		return g.f.SuffixOf(g.strExpr(depth), g.strExpr(depth))
	case 2:
		return g.f.PrefixOf(g.strExpr(depth), g.strExpr(depth))
	case 3:
		return g.f.Contains(g.strExpr(depth), g.strExpr(depth))
	case 4:
		return g.f.Gt(g.intExpr(depth), g.intExpr(depth))
	default:
		return g.f.Le(g.intExpr(depth), g.intExpr(depth))
	}
}

func (g *factoryGen) boolExpr(depth int) *Term {
	if depth <= 0 {
		return g.atom(1)
	}
	switch g.r.Intn(4) {
	case 0:
		return g.f.And(g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 1:
		return g.f.Or(g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 2:
		return g.f.Not(g.boolExpr(depth - 1))
	default:
		return g.atom(2)
	}
}

// allModels enumerates the pool domain for (s1, s2, n).
func allModels() []Model {
	var out []Model
	for _, s1 := range diffStrPool {
		for _, s2 := range diffStrPool {
			for _, n := range diffIntPool {
				out = append(out, Model{
					"s1": StrValue(s1),
					"s2": StrValue(s2),
					"n":  IntValue(n),
				})
			}
		}
	}
	return out
}

// checkEquivalent asserts that the direct and interned builds of one
// formula agree on structure, evaluation, simplification, and solver
// behaviour (verdict, model, and every work counter).
func checkEquivalent(t *testing.T, direct, interned *Term) {
	t.Helper()
	if !Equal(direct, interned) {
		t.Fatalf("structural mismatch:\n direct   %s\n interned %s", direct, interned)
	}
	// Evaluation parity under every pool model.
	for _, m := range allModels() {
		dv, derr := Eval(direct, m)
		iv, ierr := Eval(interned, m)
		if (derr == nil) != (ierr == nil) || (derr == nil && dv != iv) {
			t.Fatalf("eval mismatch under %v: direct (%v,%v) interned (%v,%v) on %s",
				m, dv, derr, iv, ierr, direct)
		}
	}
	// Simplification parity: fixpoint forms are structurally equal, and
	// the memoized path replays the same rewrite count.
	var dst, ist Stats
	ds := (*Factory)(nil).simplifyCounted(direct, &dst)
	fi := NewFactory()
	is := fi.simplifyCounted(fi.Intern(interned), &ist)
	if !Equal(ds, is) {
		t.Fatalf("simplify mismatch:\n direct   %s\n interned %s", ds, is)
	}
	if dst.Rewrites != ist.Rewrites {
		t.Fatalf("simplify rewrite-count mismatch: direct %d interned %d on %s",
			dst.Rewrites, ist.Rewrites, direct)
	}
	var rst Stats
	fi.simplifyCounted(fi.Intern(interned), &rst)
	if rst.Rewrites != ist.Rewrites {
		t.Fatalf("memo replay changed rewrite count: first %d replay %d", ist.Rewrites, rst.Rewrites)
	}
	// Solver parity: verdict, witness, and all work counters.
	dsol := NewSolver(Options{})
	isol := NewSolverWithFactory(Options{}, NewFactory())
	dStatus, dModel, dStats, dErr := dsol.Check(direct)
	iStatus, iModel, iStats, iErr := isol.Check(interned)
	if dStatus != iStatus || (dErr == nil) != (iErr == nil) {
		t.Fatalf("solver verdict mismatch: direct (%v,%v) interned (%v,%v) on %s",
			dStatus, dErr, iStatus, iErr, direct)
	}
	if dStats != iStats {
		t.Fatalf("solver stats mismatch: direct %+v interned %+v on %s", dStats, iStats, direct)
	}
	if len(dModel) != len(iModel) {
		t.Fatalf("model size mismatch: %v vs %v", dModel, iModel)
	}
	for k, v := range dModel {
		if iModel[k] != v {
			t.Fatalf("model mismatch at %s: %v vs %v", k, v, iModel[k])
		}
	}
}

// TestFactoryDifferential is the interned-vs-uninterned equivalence
// suite: the same random construction sequence run through a nil factory
// (direct allocation) and a real factory must be indistinguishable
// end-to-end.
func TestFactoryDifferential(t *testing.T) {
	const rounds = 300
	for i := 0; i < rounds; i++ {
		seed := int64(9000 + i)
		direct := (&factoryGen{r: rand.New(rand.NewSource(seed)), f: nil}).boolExpr(3)
		interned := (&factoryGen{r: rand.New(rand.NewSource(seed)), f: NewFactory()}).boolExpr(3)
		checkEquivalent(t, direct, interned)
	}
}

// TestFactoryInterning: identical construction through one factory yields
// pointer-identical terms, and the hit/miss counters record it.
func TestFactoryInterning(t *testing.T) {
	f := NewFactory()
	build := func() *Term {
		return f.And(
			f.SuffixOf(f.Str(".php"), f.Var("dst", SortString)),
			f.Not(f.Eq(f.Var("s", SortString), f.Str(""))),
		)
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("interned duplicate construction not pointer-equal: %p vs %p", a, b)
	}
	st := f.Stats()
	if st.InternMisses == 0 || st.InternHits == 0 {
		t.Fatalf("expected both hits and misses, got %+v", st)
	}
	// The second build is answered entirely from the table.
	if st.InternHits < st.InternMisses {
		t.Fatalf("second build should be all hits: %+v", st)
	}
	// A structurally equal foreign tree interns to the same pointer.
	foreign := And(
		SuffixOf(Str(".php"), Var("dst", SortString)),
		Not(Eq(Var("s", SortString), Str(""))),
	)
	if f.Intern(foreign) != a {
		t.Fatal("Intern of structurally equal foreign tree is not canonical")
	}
	// Interning an already-canonical root is identity.
	if f.Intern(a) != a {
		t.Fatal("Intern of canonical term is not identity")
	}
}

// TestFactoryNilSafe: every constructor and inspection method works on a
// nil receiver and matches the package-level functions.
func TestFactoryNilSafe(t *testing.T) {
	var f *Factory
	a := f.And(f.Eq(f.Var("x", SortString), f.Str("a")), f.Gt(f.Len(f.Var("x", SortString)), f.Int(0)))
	b := And(Eq(Var("x", SortString), Str("a")), Gt(Len(Var("x", SortString)), Int(0)))
	if !Equal(a, b) {
		t.Fatalf("nil-factory construction differs: %s vs %s", a, b)
	}
	if st := f.Stats(); st != (FactoryStats{}) {
		t.Fatalf("nil-factory stats non-zero: %+v", st)
	}
	if f.Intern(a) != a {
		t.Fatal("nil-factory Intern is not identity")
	}
	if f.True() != True() || f.False() != False() {
		t.Fatal("nil-factory booleans differ")
	}
	// Arity normalization matches the package constructors.
	if f.And() != True() || f.Or() != False() {
		t.Fatal("empty And/Or normalization differs")
	}
	x := f.Var("x", SortString)
	if f.And(x) != x || f.Or(x) != x || f.Concat(x) != x || f.Add(x) != x || f.Mul(x) != x {
		t.Fatal("unary normalization differs")
	}
}

// TestFactoryVarargsNodes exercises the >3-ary intern-key encoding.
func TestFactoryVarargsNodes(t *testing.T) {
	f := NewFactory()
	mk := func() *Term {
		return f.Or(
			f.Eq(f.Var("x", SortString), f.Str("a")),
			f.Eq(f.Var("x", SortString), f.Str("b")),
			f.Eq(f.Var("x", SortString), f.Str("c")),
			f.Eq(f.Var("x", SortString), f.Str("d")),
			f.Eq(f.Var("x", SortString), f.Str("e")),
		)
	}
	if mk() != mk() {
		t.Fatal("5-ary Or not interned")
	}
	// A different 5th disjunct must not collide.
	other := f.Or(
		f.Eq(f.Var("x", SortString), f.Str("a")),
		f.Eq(f.Var("x", SortString), f.Str("b")),
		f.Eq(f.Var("x", SortString), f.Str("c")),
		f.Eq(f.Var("x", SortString), f.Str("d")),
		f.Eq(f.Var("x", SortString), f.Str("f")),
	)
	if other == mk() {
		t.Fatal("distinct 5-ary terms collided in the intern table")
	}
}

// FuzzFactoryEquivalence drives the differential check from fuzzed
// (seed, depth) pairs.
func FuzzFactoryEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(20260806), uint8(3))
	f.Add(int64(-77), uint8(4))
	f.Add(int64(424242), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, depth uint8) {
		d := int(depth % 4)
		direct := (&factoryGen{r: rand.New(rand.NewSource(seed)), f: nil}).boolExpr(d)
		interned := (&factoryGen{r: rand.New(rand.NewSource(seed)), f: NewFactory()}).boolExpr(d)
		if !Equal(direct, interned) {
			t.Fatalf("structural mismatch:\n direct   %s\n interned %s", direct, interned)
		}
		// Evaluation parity under a few models drawn from the same seed.
		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < 8; i++ {
			m := Model{
				"s1": StrValue(diffStrPool[r.Intn(len(diffStrPool))]),
				"s2": StrValue(diffStrPool[r.Intn(len(diffStrPool))]),
				"n":  IntValue(diffIntPool[r.Intn(len(diffIntPool))]),
			}
			dv, derr := Eval(direct, m)
			iv, ierr := Eval(interned, m)
			if (derr == nil) != (ierr == nil) || (derr == nil && dv != iv) {
				t.Fatalf("eval mismatch under %v", m)
			}
		}
		// Simplification fixpoints agree.
		fi := NewFactory()
		if !Equal(Simplify(direct), fi.Simplify(fi.Intern(interned))) {
			t.Fatal("simplify fixpoint mismatch")
		}
	})
}
