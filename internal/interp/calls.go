package interp

import (
	"repro/internal/callgraph"
	"repro/internal/heapgraph"
	"repro/internal/phpast"
	"repro/internal/sexpr"
)

// evalCall dispatches a function call through the program table's
// call-target rule: sinks are recorded, user functions are inlined
// context-sensitively, built-ins are modeled, and everything else
// becomes a FUNC node with a typed symbolic result.
func (in *Interp) evalCall(x *phpast.Call, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	if t, ok := in.prog.Target(x); ok {
		return in.dispatch(t, int(x.P.Line), envs)
	}
	// Variable function: opaque symbolic result.
	envs = in.pushArgs(x.Args, envs)
	labels := make([]heapgraph.Label, len(envs))
	for i, e := range envs {
		fn := in.g.NewFunc("call_dynamic", sexpr.Unknown, int(x.P.Line))
		for _, a := range popArgs(e, len(x.Args)) {
			in.g.AddEdge(fn, a)
		}
		labels[i] = fn
	}
	return envs, labels
}

// dispatch runs a resolved function or static-method call.
func (in *Interp) dispatch(t phpast.Target, line int, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	envs = in.pushArgs(t.Args, envs)
	switch {
	case callgraph.Sinks[t.Name]:
		labels := make([]heapgraph.Label, len(envs))
		for i, e := range envs {
			labels[i] = in.recordSink(t.Name, popArgs(e, len(t.Args)), e, line)
		}
		return envs, labels
	case t.Func != nil:
		argMatrix := make([][]heapgraph.Label, len(envs))
		for i, e := range envs {
			argMatrix[i] = popArgs(e, len(t.Args))
		}
		return in.inlineCall(t.Func, argMatrix, envs, heapgraph.Null, line)
	}
	// Built-in model or generic FUNC node.
	labels := make([]heapgraph.Label, len(envs))
	for i, e := range envs {
		labels[i] = in.builtinCall(t.Name, popArgs(e, len(t.Args)), e, line)
	}
	return envs, labels
}

// pushArgs evaluates call arguments left to right, parking each on
// every path's operand stack.
func (in *Interp) pushArgs(args []phpast.Expr, envs heapgraph.EnvSet) heapgraph.EnvSet {
	for _, a := range args {
		var ls []heapgraph.Label
		envs, ls = in.eval(a, envs)
		pushTmp(envs, ls)
	}
	return envs
}

// popArgs pops n parked arguments off one path's operand stack, in
// argument order.
func popArgs(e *heapgraph.Env, n int) []heapgraph.Label {
	args := make([]heapgraph.Label, n)
	for j := n - 1; j >= 0; j-- {
		args[j] = e.PopTmp()
	}
	return args
}

// recordSink records a sink invocation on one path and returns the sink's
// boolean FUNC object.
func (in *Interp) recordSink(name string, args []heapgraph.Label, e *heapgraph.Env, line int) heapgraph.Label {
	var src, dst heapgraph.Label
	switch name {
	case "file_put_contents", "file_put_content":
		// file_put_contents($dst, $src)
		if len(args) > 0 {
			dst = args[0]
		}
		if len(args) > 1 {
			src = args[1]
		}
	default:
		// move_uploaded_file($src, $dst), copy($src, $dst), rename($src, $dst)
		if len(args) > 0 {
			src = args[0]
		}
		if len(args) > 1 {
			dst = args[1]
		}
	}
	in.sinks = append(in.sinks, SinkHit{
		Sink: name,
		Line: line,
		File: in.curFile,
		Src:  src,
		Dst:  dst,
		Env:  e.Clone(),
	})
	fn := in.g.NewFunc(name, sexpr.Bool, line)
	for _, a := range args {
		in.g.AddEdge(fn, a)
	}
	return fn
}

// inlineCallWithThis evaluates constructor arguments then inlines the
// method with $this bound.
func (in *Interp) inlineCallWithThis(fn *phpast.Func, argExprs []phpast.Expr, envs heapgraph.EnvSet, thisLabels []heapgraph.Label, line int) (heapgraph.EnvSet, []heapgraph.Label) {
	pushTmp(envs, thisLabels)
	envs = in.pushArgs(argExprs, envs)
	argMatrix, this := popThisArgs(envs, len(argExprs))
	// Inline per common this label; constructors keep the object labels.
	var out heapgraph.EnvSet
	var outLabels []heapgraph.Label
	for i, e := range envs {
		sub, _ := in.inlineCall(fn, [][]heapgraph.Label{argMatrix[i]}, heapgraph.EnvSet{e}, this[i], line)
		for range sub {
			outLabels = append(outLabels, this[i])
		}
		out = append(out, sub...)
	}
	return out, outLabels
}

// popThisArgs pops n parked arguments and then the parked $this off
// every path.
func popThisArgs(envs heapgraph.EnvSet, n int) ([][]heapgraph.Label, []heapgraph.Label) {
	argMatrix := make([][]heapgraph.Label, len(envs))
	this := make([]heapgraph.Label, len(envs))
	for i, e := range envs {
		argMatrix[i] = popArgs(e, n)
		this[i] = e.PopTmp()
	}
	return argMatrix, this
}

func (in *Interp) evalMethodCall(x *phpast.MethodCall, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	var objs []heapgraph.Label
	envs, objs = in.eval(x.Obj, envs)
	pushTmp(envs, objs)
	envs = in.pushArgs(x.Args, envs)
	argMatrix, this := popThisArgs(envs, len(x.Args))

	t, _ := in.prog.Target(x)
	if t.Func != nil {
		var out heapgraph.EnvSet
		var outLabels []heapgraph.Label
		for i, e := range envs {
			sub, ls := in.inlineCall(t.Func, [][]heapgraph.Label{argMatrix[i]}, heapgraph.EnvSet{e}, this[i], int(x.P.Line))
			out = append(out, sub...)
			outLabels = append(outLabels, ls...)
		}
		return out, outLabels
	}
	labels := make([]heapgraph.Label, len(envs))
	for i := range envs {
		fn := in.g.NewFunc("method_"+t.Name, sexpr.Unknown, int(x.P.Line))
		in.g.AddEdge(fn, this[i])
		for _, a := range argMatrix[i] {
			in.g.AddEdge(fn, a)
		}
		labels[i] = fn
	}
	return envs, labels
}

func (in *Interp) evalStaticCall(x *phpast.StaticCall, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	t, _ := in.prog.Target(x)
	return in.dispatch(t, int(x.P.Line), envs)
}
