package interp

import (
	"repro/internal/heapgraph"
	"repro/internal/phpast"
	"repro/internal/sexpr"
)

// This file holds the control-flow core: forks, loops, foreach and try,
// parameterized over how a nested body is run. Every heap-graph
// allocation, statistics increment and environment-ordering decision at
// a control-flow join lives here exactly once.

// bodyFn runs a nested statement region over an environment set.
type bodyFn func(heapgraph.EnvSet) heapgraph.EnvSet

// condFn evaluates a condition expression, returning the possibly grown
// environment set and one condition label per environment.
type condFn func(heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label)

// branch implements the paper's eval(if e then S1 else S2, G, ℰ) given the
// already evaluated condition labels: copy ℰ for the two branches, extend
// reachability with the condition (negated for the false branch), execute
// both, and join. Conditions that evaluate to concrete booleans do not
// fork. A nil runElse appends the false-branch environments unchanged.
func (in *Interp) branch(envs heapgraph.EnvSet, condLabels []heapgraph.Label, line int, runThen, runElse bodyFn) heapgraph.EnvSet {
	// Count each side first, so every fork slice is allocated once at its
	// final size.
	nT, nF := 0, 0
	for i := range envs {
		c, ok := in.concreteBool(condLabels[i])
		if !ok || c {
			nT++
		}
		if !ok || !c {
			nF++
		}
	}
	forkT := make(heapgraph.EnvSet, 0, nT)
	forkTLabels := make([]heapgraph.Label, 0, nT)
	forkF := make(heapgraph.EnvSet, 0, nF)
	forkFLabels := make([]heapgraph.Label, 0, nF)

	for i, e := range envs {
		// Concrete condition: single branch, no fork.
		if c, ok := in.concreteBool(condLabels[i]); ok {
			in.stats.PathsPruned++
			if c {
				forkT = append(forkT, e)
				forkTLabels = append(forkTLabels, heapgraph.Null)
			} else {
				forkF = append(forkF, e)
				forkFLabels = append(forkFLabels, heapgraph.Null)
			}
			continue
		}
		in.stats.PathsForked++
		te := e.Clone()
		in.stats.PathCondSharedNodes += int64(te.SharedFrames()) + 1
		fe := e
		forkT = append(forkT, te)
		forkTLabels = append(forkTLabels, condLabels[i])
		forkF = append(forkF, fe)
		forkFLabels = append(forkFLabels, condLabels[i])
	}

	var outT, outF heapgraph.EnvSet
	if len(forkT) > 0 {
		for i, e := range forkT {
			e.ER(in.g, forkTLabels[i], line)
		}
		outT = runThen(forkT)
	}
	if len(forkF) > 0 {
		// One negation per distinct condition; sized for the worst case,
		// every path with a condition of its own.
		notShared := make(map[heapgraph.Label]heapgraph.Label, len(forkF))
		for i, e := range forkF {
			if forkFLabels[i] != heapgraph.Null {
				not, ok := notShared[forkFLabels[i]]
				if !ok {
					not = in.g.NewOp("!", sexpr.Bool, line)
					in.g.AddEdge(not, forkFLabels[i])
					notShared[forkFLabels[i]] = not
				}
				e.ER(in.g, not, line)
			}
		}
		outF = forkF
		if runElse != nil {
			outF = runElse(forkF)
		}
	}
	if len(outF) == 0 {
		return outT
	}
	if len(outT) == 0 {
		return outF
	}
	out := make(heapgraph.EnvSet, 0, len(outT)+len(outF))
	return append(append(out, outT...), outF...)
}

// condLoop unrolls a condition-guarded loop. Paths that take the
// condition's false branch exit the loop and are not re-forked on later
// iterations; paths still active after the unroll bound simply exit (the
// paper: "UChecker does not precisely model loops"). runPost runs for-loop
// post expressions at every iteration boundary even after a `continue`.
// bodyFirst selects do-while semantics.
func (in *Interp) condLoop(evalCond condFn, runBody, runPost bodyFn, line int, envs heapgraph.EnvSet, bodyFirst bool) heapgraph.EnvSet {
	var exited heapgraph.EnvSet // took the false branch or broke out
	active := envs

	if bodyFirst && len(active) > 0 {
		active = runBody(active)
		active = runPost(active)
	}

	for i := 0; i < in.opts.LoopUnroll; i++ {
		if in.overBudget(active) || len(active) == 0 {
			break
		}
		clearContinues(active)
		var live, held heapgraph.EnvSet
		for _, e := range active {
			if e.BreakN > 0 {
				e.BreakN--
				if e.BreakN > 0 {
					held = append(held, e) // outer levels still unwinding
				} else {
					exited = append(exited, e)
				}
				continue
			}
			if e.ContinueN > 0 {
				// clearContinues left only a continue for an outer loop:
				// it leaves this one with a level fewer.
				e.ContinueN--
				held = append(held, e)
				continue
			}
			if e.Suspended() {
				held = append(held, e) // returned/thrown: carries through
				continue
			}
			live = append(live, e)
		}
		exited = append(exited, held...)
		if len(live) == 0 {
			active = nil
			break
		}
		var condLabels []heapgraph.Label
		live, condLabels = evalCond(live)
		notShared := map[heapgraph.Label]heapgraph.Label{}
		var cont heapgraph.EnvSet
		for j, e := range live {
			if b, ok := in.concreteBool(condLabels[j]); ok {
				in.stats.PathsPruned++
				if b {
					cont = append(cont, e)
				} else {
					exited = append(exited, e)
				}
				continue
			}
			in.stats.PathsForked++
			te := e.Clone()
			in.stats.PathCondSharedNodes += int64(te.SharedFrames()) + 1
			te.ER(in.g, condLabels[j], line)
			cont = append(cont, te)
			not, ok := notShared[condLabels[j]]
			if !ok {
				not = in.g.NewOp("!", sexpr.Bool, line)
				in.g.AddEdge(not, condLabels[j])
				notShared[condLabels[j]] = not
			}
			e.ER(in.g, not, line)
			exited = append(exited, e)
		}
		cont = runBody(cont)
		cont = runPost(cont)
		active = cont
	}
	// Paths still active after the unroll bound exit without a constraint.
	// Only they still carry unconsumed break/continue flags — paths in
	// `exited` consumed theirs when the iteration split saw them.
	consumeLoopControl(active)
	return append(exited, active...)
}

// foreachLoop iterates a foreach body given the already evaluated array
// labels. When the array object is known, its elements are iterated
// (bounded by the unroll limit); otherwise fresh symbols are bound and the
// body runs once. hasKey reports whether the key target is a simple
// variable named keyName; assignVal writes one iteration's value label
// through the loop's value target on a single path.
func (in *Interp) foreachLoop(envs heapgraph.EnvSet, arrLabels []heapgraph.Label, line int, keyName string, hasKey bool, assignVal func(*heapgraph.Env, heapgraph.Label) heapgraph.EnvSet, runBody bodyFn) heapgraph.EnvSet {
	// Park the array label on each path's operand stack so body forks keep
	// their copy aligned.
	pushTmp(envs, arrLabels)

	for iter := 0; iter < in.opts.LoopUnroll; iter++ {
		if in.overBudget(envs) {
			break
		}
		clearContinues(envs)
		var live, held heapgraph.EnvSet
		for _, e := range envs {
			if e.Suspended() {
				held = append(held, e)
			} else {
				live = append(live, e)
			}
		}
		if len(live) == 0 {
			break
		}
		anyBound := false
		var iterating heapgraph.EnvSet
		for _, e := range live {
			arr := e.Tmp[len(e.Tmp)-1] // peek parked array label
			info := in.g.Array(arr)
			var keyLabel, valLabel heapgraph.Label
			switch {
			case arr == in.filesArr && in.filesArr != heapgraph.Null:
				// foreach over $_FILES (multi-file upload forms): one
				// symbolic iteration binding the shared pre-structured
				// upload family, keeping taint and the structured name.
				if iter > 0 {
					held = append(held, e)
					continue
				}
				keyLabel = in.g.NewSymbol("", sexpr.String, line)
				valLabel = in.filesField("*", line)
			case info != nil && iter < len(info.Keys):
				k := info.Keys[iter]
				keyLabel = in.g.NewConcrete(sexpr.StrVal(k), line)
				valLabel = info.Elems[k]
			case info != nil:
				held = append(held, e) // array exhausted for this path
				continue
			default:
				if iter > 0 {
					held = append(held, e) // symbolic arrays iterate once
					continue
				}
				keyLabel = in.g.NewSymbol("", sexpr.Unknown, line)
				valLabel = in.g.NewSymbol("", sexpr.Unknown, line)
			}
			anyBound = true
			if hasKey {
				e.Bind(keyName, keyLabel)
			}
			iterating = append(assignVal(e, valLabel), iterating...)
		}
		if !anyBound {
			envs = append(iterating, held...)
			break
		}
		iterating = runBody(iterating)
		envs = append(iterating, held...)
	}
	popTmp(envs)
	consumeLoopControl(envs)
	return envs
}

// catchClause is one catch arm of tryJoin.
type catchClause struct {
	varName string
	line    int
	run     bodyFn
}

// tryJoin executes a try statement: the body executes; catch bodies are
// alternate paths joined afterwards (any statement may throw, so catches
// are reachable); finally runs on every path.
func (in *Interp) tryJoin(envs heapgraph.EnvSet, runBody bodyFn, catches []catchClause, runFinally bodyFn) heapgraph.EnvSet {
	bodyEnvs := runBody(envs)
	all := bodyEnvs
	for _, c := range catches {
		catchEnvs := envs.CloneAll()
		in.stats.PathsForked += int64(len(catchEnvs))
		for _, e := range catchEnvs {
			in.stats.PathCondSharedNodes += int64(e.SharedFrames()) + 1
		}
		for _, e := range catchEnvs {
			if c.varName != "" {
				e.Bind(c.varName, in.g.NewSymbol("s_exc_"+c.varName, sexpr.Unknown, c.line))
			}
		}
		all = append(all, c.run(catchEnvs)...)
	}
	if runFinally != nil {
		all = runFinally(all)
	}
	return all
}

// inlineCall inlines one user-function call: recursion/depth cuts yield
// an opaque symbolic result; otherwise each path gets a fresh scope with
// parameters bound, the body runs, and return values (or implicit nulls)
// are collected as the scope pops. Forks inside the callee propagate to
// the caller naturally, because the callee's environments are the
// callers' with one extra scope frame.
func (in *Interp) inlineCall(fn *phpast.Func, argMatrix [][]heapgraph.Label, envs heapgraph.EnvSet, thisLabel heapgraph.Label, line int) (heapgraph.EnvSet, []heapgraph.Label) {
	lname, decl := fn.Name, fn.Decl
	// Recursion or depth cut: opaque symbolic result.
	cut := len(in.callStack) >= in.opts.MaxCallDepth
	for _, f := range in.callStack {
		if f == lname {
			cut = true
			break
		}
	}
	if cut {
		l := in.g.NewSymbol("s_ret_"+lname, sexpr.Unknown, line)
		return envs, sameLabel(envs, l)
	}

	// Summary strategy (after the cut check, so cut paths stay
	// byte-identical to inline mode): escaped callees inline plainly;
	// every other callee inlines under merge metadata.
	withMerge := false
	if thisLabel == heapgraph.Null {
		if sum := in.opts.Summaries.Lookup(fn); sum != nil {
			if sum.Escapes {
				in.stats.SummaryEscapedCallees++
			} else {
				in.stats.SummaryInstantiated++
				withMerge = true
			}
		}
	}

	// The callee runs in its declaring file: its sink labels, includes,
	// __FILE__ and __DIR__ resolve there, not in the caller's file.
	in.callStack = append(in.callStack, lname)
	callerFile := in.curFile
	in.curFile = fn.File
	defer func() {
		in.callStack = in.callStack[:len(in.callStack)-1]
		in.curFile = callerFile
	}()

	for i, e := range envs {
		args := argMatrix[i]
		e.PushScope()
		if thisLabel != heapgraph.Null {
			e.Bind("this", thisLabel)
		}
		for j, p := range decl.Params {
			var l heapgraph.Label
			if j < len(args) && args[j] != heapgraph.Null {
				l = args[j]
			} else if p.Default != nil {
				// Defaults are constant expressions; evaluate on a singleton
				// set (cannot fork).
				_, ls := in.eval(p.Default, heapgraph.EnvSet{e})
				l = ls[0]
			} else {
				l = in.g.NewSymbol("s_param_"+p.Name, sexpr.Unknown, int(decl.P.Line))
			}
			e.Bind(p.Name, l)
		}
	}
	var popMerge func()
	if withMerge {
		// Metadata is pushed after the scopes exist so the recorded
		// depth is the depth the body's statements run at.
		popMerge = in.pushMergeScope(fn, envs)
	}
	envs = in.execStmts(decl.Body, envs)
	if popMerge != nil {
		popMerge()
	}
	labels := make([]heapgraph.Label, len(envs))
	for i, e := range envs {
		if e.Returned != heapgraph.Null {
			labels[i] = e.Returned
		} else {
			labels[i] = in.g.NewConcrete(sexpr.NullVal{}, decl.EndLine)
		}
		e.PopScope()
	}
	return envs, labels
}
