package smt

import (
	"bytes"
	"strconv"
)

// searchPlan is one cube compiled for the bounded model search. The
// search binds its variables one depth at a time, in a fixed order, and
// prunes a partial assignment as soon as a conjunct whose variables are
// all bound fails. The plan does that pruning without building Values:
//
//   - Every variable gets a slot, the register its depth binds. Slots are
//     keyed by name, as Model is: on the direct (nil-factory) path two
//     occurrences of one variable are different *Terms.
//   - Every other distinct subterm gets one register, so a subterm shared
//     by several conjuncts is evaluated once per binding.
//   - Every node is scheduled at the depth where its last variable binds.
//     Ground nodes are evaluated once, at compile time.
//   - Every conjunct is checked only at its own depth: at a deeper level
//     its bindings are unchanged, so it still holds.
//
// Registers mirror Eval exactly, errors included (see reg and eval), so a
// depth prunes exactly when Eval would return an error or false for one
// of the conjuncts scheduled there. Strings computed during the search
// are appended to one byte arena. Each depth records the arena length it
// starts at, and binding a new candidate at depth k truncates the arena
// back to that mark, so in steady state the search allocates nothing per
// assignment. Eval stays the reference: every model the search finds is
// re-checked with it against the original formula.
type searchPlan struct {
	regs  []reg
	nodes []planNode
	// steps[k] is depth k's schedule: a value n >= 0 evaluates nodes[n],
	// a value -1-r checks conjunct register r. Each conjunct's nodes come
	// right before its check, in conjunct order; nodes that only deeper
	// depths need come after the last check.
	steps [][]int32
	// slot[k] is the register depth k binds.
	slot []int32
	// litDepth[i] is the depth conjunct i is checked at.
	litDepth []int
	// arena holds constant strings, then ground results, then each
	// depth's results in depth order; mark[k] is where depth k's start.
	arena []byte
	mark  []int
}

// reg is one register: the in-place form of a Value plus Eval's error
// outcome. As in a Value, the fields of other sorts are zero, so an
// ill-sorted read (the length of an integer, the truth of a string) sees
// what Eval sees. sort is the runtime sort, which an ite whose branches
// differ in sort takes from the branch it picks, as Eval does.
type reg struct {
	s    []byte
	i    int64
	sort Sort
	b    bool
	err  bool
}

// planNode evaluates op over the registers args into register dst.
type planNode struct {
	op   Op
	dst  int32
	args []int32
}

// slotSort is the sort of the candidates the search binds to v: pools
// hand strings to any sort other than Bool and Int.
func slotSort(v *Term) Sort {
	switch v.Sort() {
	case SortBool, SortInt:
		return v.Sort()
	}
	return SortString
}

// planCompiler builds a searchPlan.
type planCompiler struct {
	p     *searchPlan
	slots []*Term
	regOf map[*Term]int32
	info  []regInfo // per register
	stack []int32   // arguments of the nodes being compiled
	args  []int32   // every node's arguments, back to back
}

// regInfo is what the compiler knows of a register: the depth it is
// evaluated at (-1 for ground), and the node that writes it (-1 for
// constants and slots, which no node writes).
type regInfo struct {
	depth, node int32
}

// compilePlan compiles the conjuncts lits for a search that binds
// slots[k] at depth k. Every variable of lits must be named by a slot.
// size, the cube's node count, bounds the number of distinct subterms and
// sizes the plan's buffers (capped), so that compiling rarely regrows
// them.
func compilePlan(lits []*Term, slots []*Term, size int) *searchPlan {
	n := len(slots)
	size = min(size+n, 512)
	p := &searchPlan{
		regs:     make([]reg, 0, size),
		nodes:    make([]planNode, 0, size),
		steps:    make([][]int32, n),
		slot:     make([]int32, n),
		litDepth: make([]int, len(lits)),
		mark:     make([]int, n),
	}
	c := &planCompiler{
		p:     p,
		slots: slots,
		regOf: make(map[*Term]int32, size),
		info:  make([]regInfo, 0, size),
	}
	for k := range slots {
		p.slot[k] = c.newReg(reg{}, int32(k), -1)
	}
	roots := make([]int32, len(lits))
	for i, l := range lits {
		roots[i] = c.compile(l)
		p.litDepth[i] = max(int(c.info[roots[i]].depth), 0)
	}
	// Nodes are created after their arguments, so index order is a valid
	// evaluation order for the ground ones.
	for i := range p.nodes {
		if c.info[p.nodes[i].dst].depth < 0 {
			p.eval(&p.nodes[i])
		}
	}
	seen := make([]int32, len(p.regs))
	for k := range int32(n) {
		for i, r := range roots {
			if p.litDepth[i] == int(k) {
				c.schedule(r, k, seen)
				p.steps[k] = append(p.steps[k], -1-r)
			}
		}
		for i, r := range roots {
			if p.litDepth[i] > int(k) {
				c.schedule(r, k, seen)
			}
		}
	}
	if n > 0 {
		p.mark[0] = len(p.arena)
	}
	return p
}

func (c *planCompiler) newReg(r reg, depth, node int32) int32 {
	c.p.regs = append(c.p.regs, r)
	c.info = append(c.info, regInfo{depth: depth, node: node})
	return int32(len(c.p.regs) - 1)
}

// slotOf returns the depth that binds the variable named name.
func (c *planCompiler) slotOf(name string) int {
	for k, v := range c.slots {
		if v.S == name {
			return k
		}
	}
	panic("smt: search plan has no slot for variable " + name)
}

// compile returns t's register, creating registers and nodes for t and
// its subterms on first sight.
func (c *planCompiler) compile(t *Term) int32 {
	if r, ok := c.regOf[t]; ok {
		return r
	}
	var r int32
	switch t.Op {
	case OpVar:
		k := c.slotOf(t.S)
		if t.sort == slotSort(c.slots[k]) {
			r = c.p.slot[k]
		} else {
			// Eval rejects a variable bound to a value of another sort.
			r = c.newReg(reg{err: true}, int32(k), -1)
		}
	case OpBoolConst:
		r = c.newReg(reg{sort: SortBool, b: t.B}, -1, -1)
	case OpIntConst:
		r = c.newReg(reg{sort: SortInt, i: t.I}, -1, -1)
	case OpStrConst:
		start := len(c.p.arena)
		c.p.arena = append(c.p.arena, t.S...)
		r = c.newReg(c.p.str(start), -1, -1)
	default:
		start := len(c.stack)
		d := int32(-1)
		for _, a := range t.Args {
			ar := c.compile(a)
			c.stack = append(c.stack, ar)
			d = max(d, c.info[ar].depth)
		}
		// Only now go the arguments to the shared buffer: compiling an
		// argument appends its own. A node's slice stays valid when the
		// buffer grows, because the old array is never written again.
		from := len(c.args)
		c.args = append(c.args, c.stack[start:]...)
		c.stack = c.stack[:start]
		end := len(c.args)
		r = c.newReg(reg{}, d, int32(len(c.p.nodes)))
		c.p.nodes = append(c.p.nodes, planNode{op: t.Op, dst: r, args: c.args[from:end:end]})
	}
	c.regOf[t] = r
	return r
}

// schedule appends to depth k's steps the nodes of depth k that register
// r needs and no earlier step of depth k evaluates, arguments first.
// seen[r] == k+1 marks registers already visited for depth k.
func (c *planCompiler) schedule(r, k int32, seen []int32) {
	in := c.info[r]
	if seen[r] == k+1 || in.depth < k {
		return
	}
	seen[r] = k + 1
	if in.node < 0 {
		return
	}
	for _, a := range c.p.nodes[in.node].args {
		c.schedule(a, k, seen)
	}
	if in.depth == k {
		c.p.steps[k] = append(c.p.steps[k], in.node)
	}
}

// try binds v at depth k and runs depth k's schedule. It reports false
// as soon as a conjunct checked at depth k errors or is false.
func (p *searchPlan) try(k int, v reg) bool {
	p.arena = p.arena[:p.mark[k]]
	p.regs[p.slot[k]] = v
	for _, s := range p.steps[k] {
		if s >= 0 {
			p.eval(&p.nodes[s])
			continue
		}
		if r := &p.regs[-1-s]; r.err || !r.b {
			return false
		}
	}
	if k+1 < len(p.mark) {
		p.mark[k+1] = len(p.arena)
	}
	return true
}

// eval computes one node the way Eval computes the corresponding term
// from its arguments' values.
func (p *searchPlan) eval(n *planNode) {
	r, a := p.regs, n.args
	dst := &r[n.dst]
	for _, x := range a {
		if r[x].err {
			*dst = reg{err: true}
			return
		}
	}
	switch n.op {
	case OpNot:
		*dst = reg{sort: SortBool, b: !r[a[0]].b}
	case OpAnd:
		v := true
		for _, x := range a {
			v = v && r[x].b
		}
		*dst = reg{sort: SortBool, b: v}
	case OpOr:
		v := false
		for _, x := range a {
			v = v || r[x].b
		}
		*dst = reg{sort: SortBool, b: v}
	case OpEq:
		x, y := &r[a[0]], &r[a[1]]
		if x.sort != y.sort {
			*dst = reg{err: true}
			return
		}
		var v bool
		switch x.sort {
		case SortBool:
			v = x.b == y.b
		case SortInt:
			v = x.i == y.i
		default:
			v = bytes.Equal(x.s, y.s)
		}
		*dst = reg{sort: SortBool, b: v}
	case OpIte:
		if r[a[0]].b {
			*dst = r[a[1]]
		} else {
			*dst = r[a[2]]
		}
	case OpAdd:
		var v int64
		for _, x := range a {
			v += r[x].i
		}
		*dst = reg{sort: SortInt, i: v}
	case OpSub:
		*dst = reg{sort: SortInt, i: r[a[0]].i - r[a[1]].i}
	case OpMul:
		v := int64(1)
		for _, x := range a {
			v *= r[x].i
		}
		*dst = reg{sort: SortInt, i: v}
	case OpNeg:
		*dst = reg{sort: SortInt, i: -r[a[0]].i}
	case OpLt:
		*dst = reg{sort: SortBool, b: r[a[0]].i < r[a[1]].i}
	case OpLe:
		*dst = reg{sort: SortBool, b: r[a[0]].i <= r[a[1]].i}
	case OpGt:
		*dst = reg{sort: SortBool, b: r[a[0]].i > r[a[1]].i}
	case OpGe:
		*dst = reg{sort: SortBool, b: r[a[0]].i >= r[a[1]].i}
	case OpConcat:
		start := len(p.arena)
		for _, x := range a {
			p.arena = append(p.arena, r[x].s...)
		}
		*dst = p.str(start)
	case OpLen:
		*dst = reg{sort: SortInt, i: int64(len(r[a[0]].s))}
	case OpSuffixOf:
		*dst = reg{sort: SortBool, b: bytes.HasSuffix(r[a[1]].s, r[a[0]].s)}
	case OpPrefixOf:
		*dst = reg{sort: SortBool, b: bytes.HasPrefix(r[a[1]].s, r[a[0]].s)}
	case OpContains:
		*dst = reg{sort: SortBool, b: bytes.Contains(r[a[0]].s, r[a[1]].s)}
	case OpIndexOf:
		*dst = reg{sort: SortInt, i: indexOf(r[a[0]].s, r[a[1]].s, r[a[2]].i, bytes.Index)}
	case OpReplace:
		s, old, nw := r[a[0]].s, r[a[1]].s, r[a[2]].s
		i := 0
		if len(old) > 0 {
			if i = bytes.Index(s, old); i < 0 {
				*dst = reg{sort: SortString, s: s}
				return
			}
		}
		start := len(p.arena)
		p.arena = append(p.arena, s[:i]...)
		p.arena = append(p.arena, nw...)
		p.arena = append(p.arena, s[i+len(old):]...)
		*dst = p.str(start)
	case OpSubstr:
		*dst = reg{sort: SortString, s: substr(r[a[0]].s, r[a[1]].i, r[a[2]].i)}
	case OpToInt:
		*dst = reg{sort: SortInt, i: strToInt(r[a[0]].s)}
	case OpFromInt:
		start := len(p.arena)
		// SMT-LIB: str.from_int of a negative is "".
		if v := r[a[0]].i; v >= 0 {
			p.arena = strconv.AppendInt(p.arena, v, 10)
		}
		*dst = p.str(start)
	case OpAt:
		s, i := r[a[0]].s, r[a[1]].i
		if i < 0 || i >= int64(len(s)) {
			*dst = reg{sort: SortString}
		} else {
			*dst = reg{sort: SortString, s: s[i : i+1]}
		}
	default:
		*dst = reg{err: true}
	}
}

// str is the string register holding the arena bytes from start on.
func (p *searchPlan) str(start int) reg {
	end := len(p.arena)
	return reg{sort: SortString, s: p.arena[start:end:end]}
}
