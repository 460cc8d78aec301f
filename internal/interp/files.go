package interp

import (
	"repro/internal/heapgraph"
	"repro/internal/sexpr"
)

// multiField identifies a $_FILES field object that PHP's multi-file
// upload form turns into an index-addressable array.
type multiField struct {
	key   string
	field string
}

// filesArray lazily creates the shared $_FILES object. Its structure is
// known a priori (Section III-B4, Fig. 6): each upload key maps to a
// pre-structured array with the five standard fields.
func (in *Interp) filesArray(line int) heapgraph.Label {
	if in.filesArr != heapgraph.Null {
		return in.filesArr
	}
	in.filesArr = in.g.NewSymbol("$_FILES", sexpr.Array, line)
	return in.filesArr
}

// filesField returns (creating on first use) the pre-structured array for
// one upload key of $_FILES. Fig. 6's fields:
//
//	name     → s_name<k> . "." . s_ext<k>   (filename concatenated with its
//	                                         extension via the "." operator)
//	type     → s_type<k>
//	tmp_name → s_tmp<k>
//	error    → s_error<k>
//	size     → s_size<k>
//
// The structured 'name' is the linchpin of Constraint-2: the destination
// path inherits the s_ext symbol, and the solver searches for an
// assignment making the path end in ".php".
//
// The key "*" is used when the index expression is symbolic, giving all
// unknown-key accesses one shared upload family.
func (in *Interp) filesField(key string, line int) heapgraph.Label {
	if l, ok := in.filesFields[key]; ok {
		return l
	}
	suffix := "_" + sanitizeSym(key)
	arr := in.g.NewArray(line)
	files := in.filesArray(line)

	// taintedSym creates a field symbol carrying a provenance edge to the
	// $_FILES object. Provenance edges from symbol (leaf) objects are
	// ignored by ToSexpr — they exist purely for the Constraint-1 taint
	// query, which follows heap-graph paths to $_FILES.
	taintedSym := func(name string, t sexpr.Type) heapgraph.Label {
		l := in.g.NewSymbol(name, t, line)
		in.g.AddEdge(l, files)
		return l
	}

	sName := taintedSym("s_name"+suffix, sexpr.String)
	sExt := taintedSym("s_ext"+suffix, sexpr.String)
	dot := in.g.NewConcrete(sexpr.StrVal("."), line)
	// (. "." s_ext)
	dotExt := in.g.NewOp(".", sexpr.String, line)
	in.g.AddEdge(dotExt, dot)
	in.g.AddEdge(dotExt, sExt)
	// (. s_name (. "." s_ext))
	name := in.g.NewOp(".", sexpr.String, line)
	in.g.AddEdge(name, sName)
	in.g.AddEdge(name, dotExt)

	in.g.SetElem(arr, "name", name)
	tmp := taintedSym("s_tmp"+suffix, sexpr.String)
	in.g.SetElem(arr, "type", taintedSym("s_type"+suffix, sexpr.String))
	in.g.SetElem(arr, "tmp_name", tmp)
	in.g.SetElem(arr, "error", taintedSym("s_error"+suffix, sexpr.Int))
	in.g.SetElem(arr, "size", taintedSym("s_size"+suffix, sexpr.Int))

	// PHP's multi-file form (<input name="f[]">) nests one more level:
	// $_FILES['f']['name'][$i]. Register the field objects so an index
	// access on them resolves to a per-(key, index) pre-structured family
	// instead of an opaque array_access — see Interp.readElem.
	if in.filesMulti == nil {
		in.filesMulti = map[heapgraph.Label]multiField{}
	}
	in.filesMulti[name] = multiField{key: key, field: "name"}
	in.filesMulti[tmp] = multiField{key: key, field: "tmp_name"}

	in.filesFields[key] = arr
	return arr
}

func sanitizeSym(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		case c == '*':
			out = append(out, 'X')
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
