package interp

import (
	"strings"

	"repro/internal/heapgraph"
	"repro/internal/phpast"
	"repro/internal/sexpr"
)

// eval evaluates an expression over the environment set. It returns the
// (possibly grown) environment set — user-function inlining forks paths —
// and one result label per returned environment. This is the paper's
// eval(node, G, ℰ) returning ⟨l_1, …, l_n⟩.
func (in *Interp) eval(e phpast.Expr, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	if e == nil {
		l := in.g.NewConcrete(sexpr.NullVal{}, 0)
		return envs, sameLabel(envs, l)
	}
	switch x := e.(type) {
	case *phpast.IntLit:
		l := in.g.NewConcrete(sexpr.IntVal(x.Value), int(x.P.Line))
		return envs, sameLabel(envs, l)
	case *phpast.FloatLit:
		l := in.g.NewConcrete(sexpr.FloatVal(x.Value), int(x.P.Line))
		return envs, sameLabel(envs, l)
	case *phpast.StringLit:
		l := in.g.NewConcrete(sexpr.StrVal(x.Value), int(x.P.Line))
		return envs, sameLabel(envs, l)
	case *phpast.BoolLit:
		l := in.g.NewConcrete(sexpr.BoolVal(x.Value), int(x.P.Line))
		return envs, sameLabel(envs, l)
	case *phpast.NullLit:
		l := in.g.NewConcrete(sexpr.NullVal{}, int(x.P.Line))
		return envs, sameLabel(envs, l)
	case *phpast.Var:
		return envs, in.evalVar(x, envs)
	case *phpast.InterpString:
		return in.evalInterpString(x, envs)
	case *phpast.ArrayDim:
		return in.evalArrayDim(x, envs)
	case *phpast.ArrayLit:
		return in.evalArrayLit(x, envs)
	case *phpast.Unary:
		return in.evalUnary(x, envs)
	case *phpast.Binary:
		return in.evalBinary(x, envs)
	case *phpast.Assign:
		return in.evalAssign(x, envs)
	case *phpast.IncDec:
		return in.evalIncDec(x, envs)
	case *phpast.Ternary:
		return in.evalTernary(x, envs)
	case *phpast.Cast:
		return in.evalCast(x, envs)
	case *phpast.ErrorSuppress:
		return in.eval(x.X, envs)
	case *phpast.Call:
		return in.evalCall(x, envs)
	case *phpast.MethodCall:
		return in.evalMethodCall(x, envs)
	case *phpast.StaticCall:
		return in.evalStaticCall(x, envs)
	case *phpast.New:
		labels := make([]heapgraph.Label, len(envs))
		for i := range envs {
			obj := in.g.NewArray(int(x.P.Line))
			labels[i] = obj
		}
		// Run the constructor when the class is known.
		if t, _ := in.prog.Target(x); t.Func != nil {
			return in.inlineCallWithThis(t.Func, x.Args, envs, labels, int(x.P.Line))
		}
		return envs, labels
	case *phpast.PropFetch:
		return in.evalPropFetch(x, envs)
	case *phpast.StaticPropFetch:
		l := in.symbolShared("s_sprop_"+x.Class+"_"+x.Prop, sexpr.Unknown, int(x.P.Line))
		return envs, sameLabel(envs, l)
	case *phpast.ClassConstFetch:
		l := in.symbolShared("s_cconst_"+x.Class+"_"+x.Const, sexpr.Unknown, int(x.P.Line))
		return envs, sameLabel(envs, l)
	case *phpast.ConstFetch:
		return envs, sameLabel(envs, in.constLabel(x.Name, int(x.P.Line)))
	case *phpast.Isset:
		var args []heapgraph.Label
		for _, v := range x.Vars {
			var ls []heapgraph.Label
			envs, ls = in.eval(v, envs)
			args = ls // keep last; all contribute edges below via ls of final envs
			pushTmp(envs, ls)
		}
		labels := make([]heapgraph.Label, len(envs))
		for i, e := range envs {
			op := in.g.NewOp("isset", sexpr.Bool, int(x.P.Line))
			// Pop in reverse; attach all parked operands.
			var ops []heapgraph.Label
			for range x.Vars {
				ops = append(ops, e.PopTmp())
			}
			for j := len(ops) - 1; j >= 0; j-- {
				in.g.AddEdge(op, ops[j])
			}
			labels[i] = op
		}
		_ = args
		return envs, labels
	case *phpast.Empty:
		var ls []heapgraph.Label
		envs, ls = in.eval(x.X, envs)
		labels := make([]heapgraph.Label, len(envs))
		for i := range envs {
			op := in.g.NewOp("empty", sexpr.Bool, int(x.P.Line))
			in.g.AddEdge(op, ls[i])
			labels[i] = op
		}
		return envs, labels
	case *phpast.Exit:
		if x.X != nil {
			envs, _ = in.eval(x.X, envs)
		}
		for _, e := range envs {
			e.Terminated = true
		}
		l := in.g.NewConcrete(sexpr.NullVal{}, int(x.P.Line))
		return envs, sameLabel(envs, l)
	case *phpast.Print:
		envs, _ = in.eval(x.X, envs)
		l := in.g.NewConcrete(sexpr.IntVal(1), int(x.P.Line))
		return envs, sameLabel(envs, l)
	case *phpast.Include:
		return in.evalInclude(x, envs)
	case *phpast.Closure:
		l := in.g.NewSymbol("s_closure", sexpr.Unknown, int(x.P.Line))
		return envs, sameLabel(envs, l)
	case *phpast.ListExpr:
		l := in.g.NewSymbol("", sexpr.Array, int(x.P.Line))
		return envs, sameLabel(envs, l)
	case *phpast.Name:
		l := in.symbolShared("s_name_"+x.Value, sexpr.String, int(x.P.Line))
		return envs, sameLabel(envs, l)
	default:
		l := in.g.NewSymbol("", sexpr.Unknown, int(e.Pos().Line))
		return envs, sameLabel(envs, l)
	}
}

func sameLabel(envs heapgraph.EnvSet, l heapgraph.Label) []heapgraph.Label {
	out := make([]heapgraph.Label, len(envs))
	for i := range out {
		out[i] = l
	}
	return out
}

func pushTmp(envs heapgraph.EnvSet, labels []heapgraph.Label) {
	for i, e := range envs {
		e.PushTmp(labels[i])
	}
}

func popTmp(envs heapgraph.EnvSet) []heapgraph.Label {
	out := make([]heapgraph.Label, len(envs))
	for i, e := range envs {
		out[i] = e.PopTmp()
	}
	return out
}

// symbolShared memoizes symbols that are global in nature (superglobal
// fields, platform constants) so all paths share one object.
func (in *Interp) symbolShared(name string, t sexpr.Type, line int) heapgraph.Label {
	if l, ok := in.superGlobs[name]; ok {
		return l
	}
	l := in.g.NewSymbol(name, t, line)
	in.superGlobs[name] = l
	return l
}

// evalVar implements the paper's eval(x, G, ℰ): bound variables return
// their label per environment; unbound ones get a fresh symbol object
// bound in that environment. Superglobals resolve to their shared
// pre-structured objects.
func (in *Interp) evalVar(x *phpast.Var, envs heapgraph.EnvSet) []heapgraph.Label {
	labels := make([]heapgraph.Label, len(envs))
	for i, e := range envs {
		labels[i] = in.varLabel(e, x.Name, int(x.P.Line))
	}
	return labels
}

// varLabel reads one variable on one path, binding a fresh symbol (or a
// superglobal's shared pre-structured object) when unbound.
func (in *Interp) varLabel(e *heapgraph.Env, name string, line int) heapgraph.Label {
	got := e.Get(name)
	if got != heapgraph.Null {
		return got
	}
	var l heapgraph.Label
	switch name {
	case "_FILES":
		l = in.filesArray(line)
	case "_POST", "_GET", "_REQUEST", "_COOKIE", "_SERVER", "_SESSION", "GLOBALS", "_ENV":
		l = in.symbolShared("$_"+strings.TrimPrefix(name, "_"), sexpr.Array, line)
	default:
		l = in.g.NewSymbol("s_$"+name, sexpr.Unknown, line)
	}
	e.Bind(name, l)
	return l
}

func (in *Interp) evalInterpString(x *phpast.InterpString, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	if len(x.Parts) == 0 {
		l := in.g.NewConcrete(sexpr.StrVal(""), int(x.P.Line))
		return envs, sameLabel(envs, l)
	}
	for _, p := range x.Parts {
		var ls []heapgraph.Label
		envs, ls = in.eval(p, envs)
		pushTmp(envs, ls)
	}
	labels := make([]heapgraph.Label, len(envs))
	for i, e := range envs {
		parts := make([]heapgraph.Label, len(x.Parts))
		for j := len(x.Parts) - 1; j >= 0; j-- {
			parts[j] = e.PopTmp()
		}
		cur := parts[0]
		for j := 1; j < len(parts); j++ {
			op := in.g.NewOp(".", sexpr.String, int(x.P.Line))
			in.g.AddEdge(op, cur)
			in.g.AddEdge(op, parts[j])
			cur = op
		}
		labels[i] = cur
	}
	return envs, labels
}

// evalArrayDim implements the paper's eval(x[e], G, ℰ) including the
// pre-structured $_FILES handling of Section III-B4 (Fig. 6): when the
// array object and a concrete index are known, the element object is
// returned directly; otherwise an array_access operation node combines the
// array and index objects.
func (in *Interp) evalArrayDim(x *phpast.ArrayDim, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	var arrLabels []heapgraph.Label
	envs, arrLabels = in.eval(x.Arr, envs)
	pushTmp(envs, arrLabels)
	var idxLabels []heapgraph.Label
	if x.Index != nil {
		envs, idxLabels = in.eval(x.Index, envs)
	} else {
		l := in.g.NewSymbol("", sexpr.Unknown, int(x.P.Line))
		idxLabels = sameLabel(envs, l)
	}
	arrLabels = popTmp(envs)

	labels := make([]heapgraph.Label, len(envs))
	for i := range envs {
		labels[i] = in.readElem(arrLabels[i], idxLabels[i], int(x.P.Line))
	}
	return envs, labels
}

// readElem resolves one array read on one path.
func (in *Interp) readElem(arr, idx heapgraph.Label, line int) heapgraph.Label {
	key, keyConcrete := in.concreteKey(idx)
	// $_FILES['key'] returns the per-key pre-structured array.
	if arr == in.filesArr && in.filesArr != heapgraph.Null {
		if keyConcrete {
			return in.filesField(key, line)
		}
		return in.filesField("*", line)
	}
	// Multi-file upload form: $_FILES['f']['name'][$i] resolves to the
	// matching field of a per-(key, index) pre-structured family, keeping
	// the structured name and taint.
	if mf, ok := in.filesMulti[arr]; ok {
		famKey := mf.key + "_item"
		if keyConcrete {
			famKey = mf.key + "_" + key
		}
		fam := in.filesField(famKey, line)
		if l, ok := in.g.Elem(fam, mf.field); ok {
			return l
		}
	}
	if info := in.g.Array(arr); info != nil {
		if keyConcrete {
			if l, ok := in.g.Elem(arr, key); ok {
				return l
			}
			// Unknown element of a known array: fresh symbol, memoized on
			// the array so repeated reads agree.
			l := in.g.NewSymbol("", sexpr.Unknown, line)
			in.g.SetElem(arr, key, l)
			return l
		}
	}
	// Fallback: array_access operation node (paper Fig. 5).
	op := in.g.NewOp("array_access", sexpr.Unknown, line)
	in.g.AddEdge(op, arr)
	in.g.AddEdge(op, idx)
	return op
}

// concreteKey extracts a concrete array key from an object, canonicalizing
// integers to their decimal spelling as PHP does.
func (in *Interp) concreteKey(l heapgraph.Label) (string, bool) {
	o, ok := in.g.Find(l)
	if !ok || o.Kind != heapgraph.KindConcrete {
		return "", false
	}
	switch v := o.Val.(type) {
	case sexpr.StrVal:
		return string(v), true
	case sexpr.IntVal:
		return itoa64(int64(v)), true
	case sexpr.BoolVal:
		if v {
			return "1", true
		}
		return "0", true
	}
	return "", false
}

func (in *Interp) evalArrayLit(x *phpast.ArrayLit, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	// Evaluate all keys and values first (parking on the operand stack),
	// then build one array object per path.
	for _, it := range x.Items {
		if it.Key != nil {
			var kls []heapgraph.Label
			envs, kls = in.eval(it.Key, envs)
			pushTmp(envs, kls)
		}
		var vls []heapgraph.Label
		envs, vls = in.eval(it.Value, envs)
		pushTmp(envs, vls)
	}
	labels := make([]heapgraph.Label, len(envs))
	for i, e := range envs {
		// Pop in reverse order.
		type kv struct {
			key    heapgraph.Label
			hasKey bool
			val    heapgraph.Label
		}
		items := make([]kv, len(x.Items))
		for j := len(x.Items) - 1; j >= 0; j-- {
			items[j].val = e.PopTmp()
			if x.Items[j].Key != nil {
				items[j].key = e.PopTmp()
				items[j].hasKey = true
			}
		}
		arr := in.g.NewArray(int(x.P.Line))
		for _, it := range items {
			if it.hasKey {
				if k, ok := in.concreteKey(it.key); ok {
					in.g.SetElem(arr, k, it.val)
					continue
				}
			}
			in.g.PushElem(arr, it.val)
		}
		labels[i] = arr
	}
	return envs, labels
}

func (in *Interp) evalUnary(x *phpast.Unary, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	var ls []heapgraph.Label
	envs, ls = in.eval(x.X, envs)
	shared := map[heapgraph.Label]heapgraph.Label{}
	labels := make([]heapgraph.Label, len(envs))
	for i := range envs {
		if folded, ok := in.foldUnary(x.Op, ls[i], int(x.P.Line)); ok {
			labels[i] = folded
			continue
		}
		if l, ok := shared[ls[i]]; ok {
			labels[i] = l
			continue
		}
		t := sexpr.Bool
		if x.Op == "-" || x.Op == "+" || x.Op == "~" {
			t = sexpr.Int
		}
		op := in.g.NewOp(x.Op, t, int(x.P.Line))
		in.g.AddEdge(op, ls[i])
		shared[ls[i]] = op
		labels[i] = op
	}
	return envs, labels
}

func (in *Interp) foldUnary(op string, l heapgraph.Label, line int) (heapgraph.Label, bool) {
	o, ok := in.g.Find(l)
	if !ok || o.Kind != heapgraph.KindConcrete {
		return heapgraph.Null, false
	}
	if op == "+" {
		return l, true
	}
	if v, ok := foldUnaryValue(op, o.Val); ok {
		return in.g.NewConcrete(v, line), true
	}
	return heapgraph.Null, false
}

// evalBinary implements the paper's eval(e1 op e2, G, ℰ): both operands
// are evaluated, then one operation node per path combines them, with edge
// order preserving left/right. Fully concrete operands fold to concrete
// results so constant control flow does not fork paths.
func (in *Interp) evalBinary(x *phpast.Binary, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	var lls []heapgraph.Label
	envs, lls = in.eval(x.L, envs)
	pushTmp(envs, lls)
	var rls []heapgraph.Label
	envs, rls = in.eval(x.R, envs)
	lls = popTmp(envs)

	// Share operation nodes across paths whose operands coincide — the
	// paper's design point: "many objects can be shared by different
	// environments, thereby reducing the memory consumption". In a path
	// explosion every path brings its own pair, so the map is made at
	// its largest size instead of growing to it by rehashing.
	type operands struct{ l, r heapgraph.Label }
	shared := make(map[operands]heapgraph.Label, len(envs))
	labels := make([]heapgraph.Label, len(envs))
	for i := range envs {
		key := operands{lls[i], rls[i]}
		if l, ok := shared[key]; ok {
			labels[i] = l
			continue
		}
		if folded, ok := in.foldBinary(x.Op, lls[i], rls[i], int(x.P.Line)); ok {
			shared[key] = folded
			labels[i] = folded
			continue
		}
		op := in.g.NewOp(x.Op, binaryResultType(x.Op), int(x.P.Line))
		in.g.AddEdge(op, lls[i])
		in.g.AddEdge(op, rls[i])
		shared[key] = op
		labels[i] = op
	}
	return envs, labels
}

func binaryResultType(op string) sexpr.Type {
	switch op {
	case ".":
		return sexpr.String
	case "+", "-", "*", "/", "%", "**", "<<", ">>", "&", "|", "^":
		return sexpr.Int
	case "==", "!=", "===", "!==", "<", ">", "<=", ">=", "&&", "||", "xor", "instanceof":
		return sexpr.Bool
	case "<=>":
		return sexpr.Int
	default: // "??" and friends
		return sexpr.Unknown
	}
}

// foldBinary computes concrete results for concrete operands, following
// PHP semantics for the operators the corpus uses.
func (in *Interp) foldBinary(op string, l, r heapgraph.Label, line int) (heapgraph.Label, bool) {
	lo, lok := in.g.Find(l)
	ro, rok := in.g.Find(r)
	if !lok || !rok || lo.Kind != heapgraph.KindConcrete || ro.Kind != heapgraph.KindConcrete {
		return heapgraph.Null, false
	}
	// "??" yields an existing operand label (no allocation).
	if op == "??" {
		if _, isNull := lo.Val.(sexpr.NullVal); isNull {
			return r, true
		}
		return l, true
	}
	if v, ok := foldBinaryValues(op, lo.Val, ro.Val); ok {
		return in.g.NewConcrete(v, line), true
	}
	return heapgraph.Null, false
}

func (in *Interp) evalIncDec(x *phpast.IncDec, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	var olds []heapgraph.Label
	envs, olds = in.eval(x.X, envs)
	one := in.g.NewConcrete(sexpr.IntVal(1), int(x.P.Line))
	news := make([]heapgraph.Label, len(envs))
	for i := range envs {
		opName := "+"
		if x.Op == "--" {
			opName = "-"
		}
		if folded, ok := in.foldBinary(opName, olds[i], one, int(x.P.Line)); ok {
			news[i] = folded
			continue
		}
		op := in.g.NewOp(opName, sexpr.Int, int(x.P.Line))
		in.g.AddEdge(op, olds[i])
		in.g.AddEdge(op, one)
		news[i] = op
	}
	envs = in.assignTo(x.X, envs, news)
	if x.Pre {
		return envs, news
	}
	return envs, olds
}

// evalTernary builds an ite operation node rather than forking paths (the
// fork points of the interpreter are statements; expression-level choice is
// carried symbolically and discharged by the solver).
func (in *Interp) evalTernary(x *phpast.Ternary, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	var cls []heapgraph.Label
	envs, cls = in.eval(x.Cond, envs)
	pushTmp(envs, cls)
	var tls []heapgraph.Label
	if x.Then != nil {
		envs, tls = in.eval(x.Then, envs)
	} else {
		tls = popTmp(envs) // short form: cond ?: else reuses the condition value
		pushTmp(envs, tls)
	}
	pushTmp(envs, tls)
	var els []heapgraph.Label
	envs, els = in.eval(x.Else, envs)
	tls = popTmp(envs)
	cls = popTmp(envs)

	labels := make([]heapgraph.Label, len(envs))
	for i := range envs {
		if b, ok := in.concreteBool(cls[i]); ok {
			if b {
				labels[i] = tls[i]
			} else {
				labels[i] = els[i]
			}
			continue
		}
		t := sexpr.Unknown
		if to, ok := in.g.Find(tls[i]); ok {
			t = to.Type
		}
		op := in.g.NewOp("ite", t, int(x.P.Line))
		in.g.AddEdge(op, cls[i])
		in.g.AddEdge(op, tls[i])
		in.g.AddEdge(op, els[i])
		labels[i] = op
	}
	return envs, labels
}

func (in *Interp) evalCast(x *phpast.Cast, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	var ls []heapgraph.Label
	envs, ls = in.eval(x.X, envs)
	labels := make([]heapgraph.Label, len(envs))
	for i := range envs {
		o, ok := in.g.Find(ls[i])
		if ok && o.Kind == heapgraph.KindConcrete {
			if v, ok := foldCastValue(x.Type, o.Val); ok {
				labels[i] = in.g.NewConcrete(v, int(x.P.Line))
				continue
			}
		}
		t := map[string]sexpr.Type{
			"int": sexpr.Int, "float": sexpr.Float, "string": sexpr.String,
			"bool": sexpr.Bool, "array": sexpr.Array,
		}[x.Type]
		op := in.g.NewOp("cast_"+x.Type, t, int(x.P.Line))
		in.g.AddEdge(op, ls[i])
		labels[i] = op
	}
	return envs, labels
}

// constLabel resolves a PHP constant by name.
func (in *Interp) constLabel(name string, line int) heapgraph.Label {
	switch strings.ToUpper(name) {
	case "PATHINFO_EXTENSION":
		return in.symbolSharedConcrete("PATHINFO_EXTENSION", sexpr.IntVal(4), line)
	case "PATHINFO_BASENAME":
		return in.symbolSharedConcrete("PATHINFO_BASENAME", sexpr.IntVal(2), line)
	case "PATHINFO_DIRNAME":
		return in.symbolSharedConcrete("PATHINFO_DIRNAME", sexpr.IntVal(1), line)
	case "PATHINFO_FILENAME":
		return in.symbolSharedConcrete("PATHINFO_FILENAME", sexpr.IntVal(8), line)
	case "PHP_EOL":
		return in.symbolSharedConcrete("PHP_EOL", sexpr.StrVal("\n"), line)
	case "DIRECTORY_SEPARATOR":
		return in.symbolSharedConcrete("DIRECTORY_SEPARATOR", sexpr.StrVal("/"), line)
	case "UPLOAD_ERR_OK":
		return in.symbolSharedConcrete("UPLOAD_ERR_OK", sexpr.IntVal(0), line)
	case "__FILE__":
		return in.g.NewConcrete(sexpr.StrVal(in.curFile), line)
	case "__DIR__":
		return in.g.NewConcrete(sexpr.StrVal(dirOf(in.curFile)), line)
	case "ABSPATH", "WP_CONTENT_DIR", "WP_PLUGIN_DIR":
		return in.symbolShared("s_const_"+name, sexpr.String, line)
	default:
		return in.symbolShared("s_const_"+name, sexpr.Unknown, line)
	}
}

func (in *Interp) symbolSharedConcrete(name string, v sexpr.Expr, line int) heapgraph.Label {
	if l, ok := in.superGlobs["const:"+name]; ok {
		return l
	}
	l := in.g.NewConcrete(v, line)
	in.superGlobs["const:"+name] = l
	return l
}

func dirOf(p string) string {
	if i := strings.LastIndexByte(p, '/'); i > 0 {
		return p[:i]
	}
	return "."
}

func (in *Interp) evalPropFetch(x *phpast.PropFetch, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	var ols []heapgraph.Label
	envs, ols = in.eval(x.Obj, envs)
	labels := make([]heapgraph.Label, len(envs))
	for i := range envs {
		if info := in.g.Array(ols[i]); info != nil {
			if l, ok := in.g.Elem(ols[i], x.Prop); ok {
				labels[i] = l
				continue
			}
			l := in.g.NewSymbol("", sexpr.Unknown, int(x.P.Line))
			in.g.SetElem(ols[i], x.Prop, l)
			labels[i] = l
			continue
		}
		op := in.g.NewOp("prop_fetch", sexpr.Unknown, int(x.P.Line))
		key := in.g.NewConcrete(sexpr.StrVal(x.Prop), int(x.P.Line))
		in.g.AddEdge(op, ols[i])
		in.g.AddEdge(op, key)
		labels[i] = op
	}
	return envs, labels
}

func (in *Interp) evalInclude(x *phpast.Include, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	envs, _ = in.eval(x.X, envs)
	target := in.prog.Include(in.curFile, x)
	done := in.g.NewConcrete(sexpr.BoolVal(true), int(x.P.Line))
	if target == nil {
		return envs, sameLabel(envs, done)
	}
	for _, f := range in.fileStack {
		if f == target.Name {
			return envs, sameLabel(envs, done) // include cycle
		}
	}
	in.fileStack = append(in.fileStack, target.Name)
	prev := in.curFile
	in.curFile = target.Name
	envs = in.execStmts(target.Top, envs)
	in.curFile = prev
	in.fileStack = in.fileStack[:len(in.fileStack)-1]
	return envs, sameLabel(envs, done)
}

func baseOf(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// assignTo writes a value into an assignment target on every path.
func (in *Interp) assignTo(target phpast.Expr, envs heapgraph.EnvSet, vals []heapgraph.Label) heapgraph.EnvSet {
	switch t := target.(type) {
	case *phpast.Var:
		for i, e := range envs {
			e.Bind(t.Name, vals[i])
		}
		return envs
	case *phpast.ArrayDim:
		return in.assignToDim(t, envs, vals)
	case *phpast.PropFetch:
		pushTmp(envs, vals)
		var ols []heapgraph.Label
		envs, ols = in.eval(t.Obj, envs)
		vals = popTmp(envs)
		for i := range envs {
			if in.g.Array(ols[i]) != nil {
				in.g.SetElem(ols[i], t.Prop, vals[i])
			}
		}
		return envs
	case *phpast.ListExpr:
		for j, item := range t.Items {
			if item == nil {
				continue
			}
			sub := make([]heapgraph.Label, len(envs))
			for i := range envs {
				sub[i] = in.readElem(vals[i], in.g.NewConcrete(sexpr.IntVal(int64(j)), int(t.P.Line)), int(t.P.Line))
			}
			envs = in.assignTo(item, envs, sub)
		}
		return envs
	case *phpast.StaticPropFetch, *phpast.ConstFetch:
		return envs // constants/statics: no tracked state
	default:
		return envs
	}
}

// assignToDim implements array-element assignment with copy-on-write: PHP
// arrays are value types, so forked paths must not observe each other's
// writes through a shared array object.
func (in *Interp) assignToDim(t *phpast.ArrayDim, envs heapgraph.EnvSet, vals []heapgraph.Label) heapgraph.EnvSet {
	pushTmp(envs, vals)
	var arrs []heapgraph.Label
	envs, arrs = in.eval(t.Arr, envs)
	pushTmp(envs, arrs)
	var idxs []heapgraph.Label
	if t.Index != nil {
		envs, idxs = in.eval(t.Index, envs)
	} else {
		idxs = sameLabel(envs, heapgraph.Null)
	}
	arrs = popTmp(envs)
	vals = popTmp(envs)

	newArrs := make([]heapgraph.Label, len(envs))
	for i := range envs {
		// Copy-on-write clone of the base array (or a fresh array when the
		// base is not a known array object).
		na := in.g.NewArray(int(t.P.Line))
		if info := in.g.Array(arrs[i]); info != nil {
			for _, k := range info.Keys {
				in.g.SetElem(na, k, info.Elems[k])
			}
		}
		if t.Index == nil {
			in.g.PushElem(na, vals[i])
		} else if k, ok := in.concreteKey(idxs[i]); ok {
			in.g.SetElem(na, k, vals[i])
		} else {
			in.g.PushElem(na, vals[i])
		}
		newArrs[i] = na
	}
	// Rebind the base (recursively for nested dims).
	return in.assignTo(t.Arr, envs, newArrs)
}

func (in *Interp) evalAssign(x *phpast.Assign, envs heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) {
	if x.Op == "" {
		var vals []heapgraph.Label
		envs, vals = in.eval(x.Value, envs)
		envs = in.assignTo(x.Target, envs, vals)
		return envs, vals
	}
	// Compound assignment: target = target op value.
	bin := &phpast.Binary{P: x.P, Op: x.Op, L: x.Target, R: x.Value}
	var vals []heapgraph.Label
	envs, vals = in.evalBinary(bin, envs)
	envs = in.assignTo(x.Target, envs, vals)
	return envs, vals
}
