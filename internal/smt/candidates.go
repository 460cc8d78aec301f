package smt

import "strings"

// candidatePool derives, from the constraint being searched, the finite
// candidate domains used by the bounded model search.
//
// The seeding strategy makes the search complete for the constraint shapes
// UChecker's translator emits:
//
//   - Equalities and suffix/prefix/contains atoms against string literals
//     are solvable by the literals themselves and their prefixes/suffixes
//     (e.g. x where (str.suffixof ".php" (str.++ x)) needs x = ".php" or
//     any extension of it, and x where (= (str.++ x ".php") "a.php")
//     needs the substring "a").
//   - Length comparisons (str.len e ⋈ n) are solvable by filler strings of
//     length n-1, n, n+1 built from a neutral alphabet character.
//   - Concatenation equalities are covered by pairwise concatenations of
//     the literal seeds (bounded).
//   - Integer comparisons are solvable by the constants and their ±1
//     neighbourhood, plus the lengths of the string literals.
//
// Every candidate that actually gets reported in a model is re-verified by
// evaluating the original formula, so over-generation is harmless.
type candidatePool struct {
	strs  []Value
	ints  []Value
	bools []Value
	// strBytes holds the bytes of every string candidate back to back, the
	// form the search plan binds: strs[i] is
	// strBytes[strStart[i]:strStart[i+1]].
	strBytes []byte
	strStart []int32
}

func newCandidatePool(conj *Term, opts Options) *candidatePool {
	p := &candidatePool{
		bools: []Value{BoolValue(true), BoolValue(false)},
	}

	var strLits []string
	var intLits []int64
	seenS := map[string]bool{}
	seenI := map[int64]bool{}
	var walk func(*Term)
	walk = func(t *Term) {
		if t == nil {
			return
		}
		switch t.Op {
		case OpStrConst:
			if !seenS[t.S] {
				seenS[t.S] = true
				strLits = append(strLits, t.S)
			}
		case OpIntConst:
			if !seenI[t.I] {
				seenI[t.I] = true
				intLits = append(intLits, t.I)
			}
		}
		for _, a := range t.Args {
			walk(a)
		}
	}
	walk(conj)

	// --- string candidates, in priority order ---
	addS := func(s string) {
		if len(p.strs) >= opts.MaxStrCandidates {
			return
		}
		for _, v := range p.strs {
			if v.S == s {
				return
			}
		}
		p.strs = append(p.strs, StrValue(s))
	}
	addS("")
	for _, l := range strLits {
		addS(l)
	}
	// Suffixes and prefixes of each literal (most useful for
	// suffixof/prefixof decomposition), shortest literals first.
	for _, l := range strLits {
		if len(l) > 24 {
			continue
		}
		for i := 1; i < len(l); i++ {
			addS(l[i:]) // proper suffixes
		}
		for i := len(l) - 1; i > 0; i-- {
			addS(l[:i]) // proper prefixes
		}
	}
	// Filler strings for length constraints: lengths n-1, n, n+1 for every
	// small integer constant n, built from 'a'. Constants appear negated
	// when the simplifier moves offsets across comparisons, so the
	// absolute value seeds fillers too.
	for _, n := range intLits {
		if n < 0 {
			n = -n
		}
		for _, d := range []int64{-1, 0, 1} {
			k := n + d
			if k >= 0 && k <= 64 {
				addS(strings.Repeat("a", int(k)))
			}
		}
	}
	// Literal ++ literal pairs (covers split equalities), bounded.
	for _, a := range strLits {
		for _, b := range strLits {
			if len(a)+len(b) <= 32 {
				addS(a + b)
			}
		}
	}
	// Fillers combined with literals (filler-prefixed extensions satisfy a
	// suffix requirement and a length floor simultaneously).
	for _, l := range strLits {
		if len(l) <= 16 {
			addS("a" + l)
			addS("aaaa" + l)
			addS("aaaaaaaa" + l)
		}
	}
	// Generic two-letter seeds: purely relational constraints (x a proper
	// suffix of y but not a prefix, x = y ++ y, …) can survive
	// simplification with no literals at all; a tiny two-letter universe
	// gives the search witnesses for such shapes.
	for _, s := range []string{"a", "b", "ab", "ba", "aa", "bb"} {
		addS(s)
	}
	// Digit strings for str.to.int interplay.
	addS("0")
	addS("1")
	for _, n := range intLits {
		if n >= 0 && n < 1_000_000 {
			addS(itoa(n))
		}
	}

	// --- integer candidates ---
	addI := func(i int64) {
		if len(p.ints) >= opts.MaxIntCandidates {
			return
		}
		for _, v := range p.ints {
			if v.I == i {
				return
			}
		}
		p.ints = append(p.ints, IntValue(i))
	}
	addI(0)
	addI(1)
	addI(-1)
	// Both signs: comparison normalization can negate constants.
	for _, n := range intLits {
		addI(n)
		addI(n - 1)
		addI(n + 1)
		addI(-n)
		addI(-n - 1)
		addI(-n + 1)
	}
	// Candidate-length seeding: integer variables are typically compared
	// against lengths of string variables, whose values come from the
	// candidate pool above. Seed every distinct candidate length, its ±1
	// neighbourhood, pairwise sums (concatenations of two variables), and
	// offsets by the formula's integer constants.
	lenSet := map[int64]bool{}
	for _, v := range p.strs {
		lenSet[int64(len(v.S))] = true
	}
	var candLens []int64
	for l := range lenSet {
		candLens = append(candLens, l)
	}
	sortInt64s(candLens)
	for _, l := range candLens {
		addI(l)
		addI(l - 1)
		addI(l + 1)
	}
	for _, a := range candLens {
		for _, b := range candLens {
			addI(a + b)
			addI(a + b + 1)
		}
	}
	for _, l := range candLens {
		for _, c := range intLits {
			for _, d := range []int64{0, 1, -1} {
				addI(l + c + d)
				addI(l - c + d)
			}
		}
	}

	n := 0
	for _, v := range p.strs {
		n += len(v.S)
	}
	p.strBytes = make([]byte, 0, n)
	p.strStart = make([]int32, 0, len(p.strs)+1)
	for _, v := range p.strs {
		p.strStart = append(p.strStart, int32(len(p.strBytes)))
		p.strBytes = append(p.strBytes, v.S...)
	}
	p.strStart = append(p.strStart, int32(len(p.strBytes)))
	return p
}

func (p *candidatePool) forVar(v *Term) []Value {
	switch v.Sort() {
	case SortBool:
		return p.bools
	case SortInt:
		return p.ints
	default:
		return p.strs
	}
}

// reg returns c, candidate i of the list forVar returned, in the search
// plan's register form.
func (p *candidatePool) reg(c *Value, i int) reg {
	r := reg{sort: c.Sort, b: c.B, i: c.I}
	if c.Sort == SortString {
		end := p.strStart[i+1]
		r.s = p.strBytes[p.strStart[i]:end:end]
	}
	return r
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func sortInt64s(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
