package interp

import (
	"strings"

	"repro/internal/heapgraph"
	"repro/internal/sexpr"
)

// builtinTypes maps PHP built-in (and WordPress platform) function names to
// result types, initializing the paper's FUNC set (Section III-B3: "FUNC
// is initialized with built-in functions of PHP languages or specific
// platforms (such as WordPress)"). Functions absent from the table yield
// ⊥-typed results.
var builtinTypes = map[string]sexpr.Type{
	// string functions
	"strlen": sexpr.Int, "strpos": sexpr.Int, "strrpos": sexpr.Int,
	"substr": sexpr.String, "str_replace": sexpr.String,
	"strtolower": sexpr.String, "strtoupper": sexpr.String,
	"trim": sexpr.String, "ltrim": sexpr.String, "rtrim": sexpr.String,
	"basename": sexpr.String, "dirname": sexpr.String,
	"sprintf": sexpr.String, "str_ireplace": sexpr.String,
	"preg_replace": sexpr.String, "preg_match": sexpr.Int,
	"md5": sexpr.String, "sha1": sexpr.String, "uniqid": sexpr.String,
	"sanitize_file_name": sexpr.String, "sanitize_text_field": sexpr.String,
	"esc_attr": sexpr.String, "esc_html": sexpr.String, "esc_url": sexpr.String,
	"number_format": sexpr.String, "implode": sexpr.String, "join": sexpr.String,
	"ucfirst": sexpr.String, "lcfirst": sexpr.String, "nl2br": sexpr.String,
	"htmlspecialchars": sexpr.String, "addslashes": sexpr.String,
	"stripslashes": sexpr.String, "urlencode": sexpr.String,
	"rawurlencode": sexpr.String, "base64_encode": sexpr.String,
	"base64_decode": sexpr.String, "wp_generate_password": sexpr.String,

	// numeric functions
	"intval": sexpr.Int, "count": sexpr.Int, "sizeof": sexpr.Int,
	"time": sexpr.Int, "rand": sexpr.Int, "mt_rand": sexpr.Int,
	"filesize": sexpr.Int, "abs": sexpr.Int, "floor": sexpr.Int,
	"ceil": sexpr.Int, "round": sexpr.Int, "min": sexpr.Int, "max": sexpr.Int,
	"strcmp": sexpr.Int, "strcasecmp": sexpr.Int,

	// boolean predicates
	"in_array": sexpr.Bool, "is_array": sexpr.Bool, "is_string": sexpr.Bool,
	"is_numeric": sexpr.Bool, "is_int": sexpr.Bool, "is_dir": sexpr.Bool,
	"file_exists": sexpr.Bool, "is_file": sexpr.Bool, "is_readable": sexpr.Bool,
	"is_writable": sexpr.Bool, "is_uploaded_file": sexpr.Bool,
	"function_exists": sexpr.Bool, "class_exists": sexpr.Bool, "defined": sexpr.Bool,
	"mkdir": sexpr.Bool, "unlink": sexpr.Bool, "chmod": sexpr.Bool,
	"wp_verify_nonce": sexpr.Bool, "current_user_can": sexpr.Bool,
	"is_admin": sexpr.Bool, "is_user_logged_in": sexpr.Bool,
	"wp_mkdir_p": sexpr.Bool, "checked": sexpr.Bool,

	// arrays / platform
	"explode": sexpr.Array, "pathinfo": sexpr.Array, "array_merge": sexpr.Array,
	"array_keys": sexpr.Array, "array_values": sexpr.Array, "array_map": sexpr.Array,
	"wp_upload_dir": sexpr.Array, "get_option": sexpr.Unknown,
	"end": sexpr.Unknown, "reset": sexpr.Unknown, "current": sexpr.Unknown,
	"get_current_user_id": sexpr.Int,
	"wp_die":              sexpr.Null, "add_action": sexpr.Bool, "add_filter": sexpr.Bool,
	"update_option": sexpr.Bool, "delete_option": sexpr.Bool,
	"apply_filters": sexpr.Unknown, "do_action": sexpr.Null,
	"plugin_dir_path": sexpr.String, "plugin_dir_url": sexpr.String,
	"get_bloginfo": sexpr.String, "site_url": sexpr.String, "admin_url": sexpr.String,
	"wp_insert_attachment": sexpr.Int, "update_user_meta": sexpr.Bool,
	"get_user_meta": sexpr.Unknown, "wp_update_attachment_metadata": sexpr.Bool,
	"wp_generate_attachment_metadata": sexpr.Array,
}

// builtinCall models one built-in invocation on one path. Most built-ins
// become FUNC nodes whose semantics the translator discharges per Table II;
// a few structural ones (pathinfo, explode, end, wp_upload_dir) are
// resolved eagerly because they manipulate arrays that only exist inside
// the interpreter.
func (in *Interp) builtinCall(name string, args []heapgraph.Label, e *heapgraph.Env, line int) heapgraph.Label {
	switch name {
	case "pathinfo":
		return in.builtinPathinfo(args, line)
	case "explode":
		return in.builtinExplode(args, line)
	case "end", "array_pop":
		return in.builtinEnd(args, line)
	case "reset", "current", "array_shift":
		return in.builtinFirst(args, line)
	case "wp_upload_dir":
		// The paper models wp_upload_dir() as a symbolic value s_dir; its
		// 'path'/'url' fields are symbolic strings. A pre-structured array
		// gives array accesses stable symbols.
		arr := in.g.NewArray(line)
		in.g.SetElem(arr, "path", in.symbolShared("s_wp_upload_path", sexpr.String, line))
		in.g.SetElem(arr, "url", in.symbolShared("s_wp_upload_url", sexpr.String, line))
		in.g.SetElem(arr, "basedir", in.symbolShared("s_wp_upload_basedir", sexpr.String, line))
		in.g.SetElem(arr, "baseurl", in.symbolShared("s_wp_upload_baseurl", sexpr.String, line))
		in.g.SetElem(arr, "subdir", in.symbolShared("s_wp_upload_subdir", sexpr.String, line))
		in.g.SetElem(arr, "error", in.g.NewConcrete(sexpr.BoolVal(false), line))
		return arr
	case "strtolower", "strtoupper":
		// Lower/upper of a concrete string folds; of the pre-structured
		// name it preserves structure enough for suffix checks, so pass
		// through structurally via a FUNC node.
		if len(args) == 1 {
			if o, ok := in.g.Find(args[0]); ok && o.Kind == heapgraph.KindConcrete {
				if s, ok := o.Val.(sexpr.StrVal); ok {
					v := string(s)
					if name == "strtolower" {
						v = strings.ToLower(v)
					} else {
						v = strings.ToUpper(v)
					}
					return in.g.NewConcrete(sexpr.StrVal(v), line)
				}
			}
		}
	case "basename":
		// Concrete fold; otherwise FUNC node for the translator's
		// File Name rule.
		if len(args) >= 1 {
			if o, ok := in.g.Find(args[0]); ok && o.Kind == heapgraph.KindConcrete {
				if s, ok := o.Val.(sexpr.StrVal); ok {
					return in.g.NewConcrete(sexpr.StrVal(baseOf(string(s))), line)
				}
			}
		}
	case "dirname":
		if len(args) >= 1 {
			if o, ok := in.g.Find(args[0]); ok && o.Kind == heapgraph.KindConcrete {
				if s, ok := o.Val.(sexpr.StrVal); ok {
					return in.g.NewConcrete(sexpr.StrVal(dirOf(string(s))), line)
				}
			}
		}
	case "sanitize_file_name":
		// WordPress's sanitizer strips path separators but keeps the
		// extension — pass the argument through so the extension constraint
		// still sees the structured name.
		if len(args) == 1 {
			return args[0]
		}
	case "sprintf":
		return in.builtinSprintf(args, line)
	case "implode", "join":
		return in.builtinImplode(args, line)
	case "count", "sizeof":
		if len(args) == 1 {
			if info := in.g.Array(args[0]); info != nil {
				return in.g.NewConcrete(sexpr.IntVal(int64(len(info.Keys))), line)
			}
		}
	case "array_merge":
		if len(args) > 0 {
			merged := in.g.NewArray(line)
			for _, a := range args {
				if info := in.g.Array(a); info != nil {
					for _, k := range info.Keys {
						in.g.SetElem(merged, k, info.Elems[k])
					}
				}
			}
			return merged
		}
	}

	t, known := builtinTypes[name]
	if !known {
		t = sexpr.Unknown
	}
	fn := in.g.NewFunc(name, t, line)
	for _, a := range args {
		in.g.AddEdge(fn, a)
	}
	return fn
}

// builtinPathinfo models pathinfo($path[, $flags]). When the path is the
// pre-structured upload name s_name . "." . s_ext, the extension component
// resolves to the s_ext symbol — this is what lets guards like
// `pathinfo($_FILES[$t]['name'], PATHINFO_EXTENSION) !== 'zip'` constrain
// the same symbol the destination path ends with (WP Demo Buddy,
// Listing 8).
func (in *Interp) builtinPathinfo(args []heapgraph.Label, line int) heapgraph.Label {
	if len(args) == 0 {
		return in.g.NewSymbol("", sexpr.Unknown, line)
	}
	pathL := args[0]
	extL, baseL, nameL := in.pathComponents(pathL, line)

	if len(args) >= 2 {
		// Flag-selected component.
		if o, ok := in.g.Find(args[1]); ok && o.Kind == heapgraph.KindConcrete {
			if v, ok := o.Val.(sexpr.IntVal); ok {
				switch int64(v) {
				case 4: // PATHINFO_EXTENSION
					return extL
				case 2: // PATHINFO_BASENAME
					return baseL
				case 8: // PATHINFO_FILENAME
					return nameL
				case 1: // PATHINFO_DIRNAME
					return in.g.NewSymbol("", sexpr.String, line)
				}
			}
		}
		return in.g.NewSymbol("", sexpr.String, line)
	}
	arr := in.g.NewArray(line)
	in.g.SetElem(arr, "dirname", in.g.NewSymbol("", sexpr.String, line))
	in.g.SetElem(arr, "basename", baseL)
	in.g.SetElem(arr, "extension", extL)
	in.g.SetElem(arr, "filename", nameL)
	return arr
}

// pathComponents decomposes a path-valued object into (extension,
// basename, filename-without-extension) labels, recognizing the
// pre-structured "name . '.' . ext" concat shape and concrete strings.
func (in *Interp) pathComponents(pathL heapgraph.Label, line int) (ext, base, name heapgraph.Label) {
	o, ok := in.g.Find(pathL)
	if ok && o.Kind == heapgraph.KindConcrete {
		if s, ok := o.Val.(sexpr.StrVal); ok {
			b := baseOf(string(s))
			dot := strings.LastIndexByte(b, '.')
			e, n := "", b
			if dot >= 0 {
				e, n = b[dot+1:], b[:dot]
			}
			return in.g.NewConcrete(sexpr.StrVal(e), line),
				in.g.NewConcrete(sexpr.StrVal(b), line),
				in.g.NewConcrete(sexpr.StrVal(n), line)
		}
	}
	// Structured name: concat(..., concat(".", s_ext)) built by the
	// $_FILES model.
	if e, n, ok := in.splitStructuredName(pathL); ok {
		return e, pathL, n
	}
	return in.g.NewSymbol("", sexpr.String, line),
		pathL,
		in.g.NewSymbol("", sexpr.String, line)
}

// splitStructuredName recognizes the $_FILES 'name' shape
// (. s_name (. "." s_ext)) and returns (s_ext, s_name).
func (in *Interp) splitStructuredName(l heapgraph.Label) (ext, name heapgraph.Label, ok bool) {
	o, ok := in.g.Find(l)
	if !ok || o.Kind != heapgraph.KindOp || o.Name != "." {
		return 0, 0, false
	}
	edges := in.g.Edges(l)
	if len(edges) != 2 {
		return 0, 0, false
	}
	right, ok := in.g.Find(edges[1])
	if !ok || right.Kind != heapgraph.KindOp || right.Name != "." {
		return 0, 0, false
	}
	rEdges := in.g.Edges(edges[1])
	if len(rEdges) != 2 {
		return 0, 0, false
	}
	dot, ok := in.g.Find(rEdges[0])
	if !ok || dot.Kind != heapgraph.KindConcrete {
		return 0, 0, false
	}
	if s, isStr := dot.Val.(sexpr.StrVal); !isStr || s != "." {
		return 0, 0, false
	}
	return rEdges[1], edges[0], true
}

// builtinExplode models explode($sep, $str): when the string is the
// pre-structured name and the separator is ".", the resulting array's last
// element is the extension symbol (the `end(explode('.', $name))` idiom).
func (in *Interp) builtinExplode(args []heapgraph.Label, line int) heapgraph.Label {
	arr := in.g.NewArray(line)
	if len(args) >= 2 {
		sep, ok := in.g.Find(args[0])
		if ok && sep.Kind == heapgraph.KindConcrete {
			if s, ok := sep.Val.(sexpr.StrVal); ok {
				if str, ok := in.g.Find(args[1]); ok && str.Kind == heapgraph.KindConcrete {
					if sv, ok2 := str.Val.(sexpr.StrVal); ok2 {
						for _, part := range strings.Split(string(sv), string(s)) {
							in.g.PushElem(arr, in.g.NewConcrete(sexpr.StrVal(part), line))
						}
						return arr
					}
				}
				if s == "." {
					if ext, name, ok := in.splitStructuredName(args[1]); ok {
						in.g.PushElem(arr, name)
						in.g.PushElem(arr, ext)
						return arr
					}
				}
			}
		}
	}
	in.g.PushElem(arr, in.g.NewSymbol("", sexpr.String, line))
	in.g.PushElem(arr, in.g.NewSymbol("", sexpr.String, line))
	return arr
}

// builtinEnd models end()/array_pop(): the last element of a recognized
// array (the paper's Table II "Tail Element" rule), a fresh string symbol
// otherwise.
func (in *Interp) builtinEnd(args []heapgraph.Label, line int) heapgraph.Label {
	if len(args) == 1 {
		if info := in.g.Array(args[0]); info != nil && len(info.Keys) > 0 {
			return info.Elems[info.Keys[len(info.Keys)-1]]
		}
	}
	return in.g.NewSymbol("", sexpr.String, line)
}

func (in *Interp) builtinFirst(args []heapgraph.Label, line int) heapgraph.Label {
	if len(args) == 1 {
		if info := in.g.Array(args[0]); info != nil && len(info.Keys) > 0 {
			return info.Elems[info.Keys[0]]
		}
	}
	return in.g.NewSymbol("", sexpr.String, line)
}

// builtinSprintf models sprintf with %s/%d holes as a concat chain so
// destination names built via sprintf("%s/%s", $dir, $name) keep their
// structure.
func (in *Interp) builtinSprintf(args []heapgraph.Label, line int) heapgraph.Label {
	if len(args) == 0 {
		return in.g.NewSymbol("", sexpr.String, line)
	}
	fo, ok := in.g.Find(args[0])
	if !ok || fo.Kind != heapgraph.KindConcrete {
		fn := in.g.NewFunc("sprintf", sexpr.String, line)
		for _, a := range args {
			in.g.AddEdge(fn, a)
		}
		return fn
	}
	format, ok := fo.Val.(sexpr.StrVal)
	if !ok {
		return in.g.NewSymbol("", sexpr.String, line)
	}
	var parts []heapgraph.Label
	rest := string(format)
	argIdx := 1
	for {
		i := strings.IndexByte(rest, '%')
		if i < 0 || i+1 >= len(rest) {
			break
		}
		if rest[i+1] == '%' {
			// literal percent
			parts = append(parts, in.g.NewConcrete(sexpr.StrVal(rest[:i+1]), line))
			rest = rest[i+2:]
			continue
		}
		if i > 0 {
			parts = append(parts, in.g.NewConcrete(sexpr.StrVal(rest[:i]), line))
		}
		// Skip width/precision flags to the conversion letter.
		j := i + 1
		for j < len(rest) && !isConvLetter(rest[j]) {
			j++
		}
		if argIdx < len(args) {
			parts = append(parts, args[argIdx])
			argIdx++
		}
		if j+1 <= len(rest) {
			rest = rest[j+1:]
		} else {
			rest = ""
		}
	}
	if rest != "" {
		parts = append(parts, in.g.NewConcrete(sexpr.StrVal(rest), line))
	}
	if len(parts) == 0 {
		return in.g.NewConcrete(sexpr.StrVal(string(format)), line)
	}
	cur := parts[0]
	for _, p := range parts[1:] {
		op := in.g.NewOp(".", sexpr.String, line)
		in.g.AddEdge(op, cur)
		in.g.AddEdge(op, p)
		cur = op
	}
	return cur
}

func isConvLetter(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// builtinImplode models implode($glue, $array) over recognized arrays.
func (in *Interp) builtinImplode(args []heapgraph.Label, line int) heapgraph.Label {
	if len(args) == 2 {
		if info := in.g.Array(args[1]); info != nil && len(info.Keys) > 0 {
			cur := info.Elems[info.Keys[0]]
			for _, k := range info.Keys[1:] {
				withGlue := in.g.NewOp(".", sexpr.String, line)
				in.g.AddEdge(withGlue, cur)
				in.g.AddEdge(withGlue, args[0])
				cur2 := in.g.NewOp(".", sexpr.String, line)
				in.g.AddEdge(cur2, withGlue)
				in.g.AddEdge(cur2, info.Elems[k])
				cur = cur2
			}
			return cur
		}
	}
	fn := in.g.NewFunc("implode", sexpr.String, line)
	for _, a := range args {
		in.g.AddEdge(fn, a)
	}
	return fn
}
