// Package baseline implements the two scanners UChecker is compared
// against in Section IV-C of the paper.
//
// RIPS (Dahse et al.) detects sensitive sinks tainted by untrusted input.
// The paper attributes its error profile to exactly that mechanism: "While
// taint analysis concerns the source of the uploaded file, it does not
// model the name or the extension of this file, thereby being likely to
// introduce false positives" — RIPS flagged 27 of the 28 benign
// upload-supporting plugins and missed WooCommerce Custom Profile Picture
// (whose flow runs through an object method). The RIPSLike scanner here is
// a flow-insensitive interprocedural taint analysis from $_FILES to the
// upload sinks, with no extension modeling and no taint propagation
// through dynamic method dispatch.
//
// WAP (Medeiros et al.) combines taint analysis with data-mining-based
// false-positive suppression. Its published profile on this workload is
// the opposite failure mode: 4/16 vulnerable detected with 1/28 false
// positives — the learned classifier suppresses any tainted sink that
// shows "sanitization symptoms" nearby, which silences the many vulnerable
// plugins whose guards are present but ineffective. The WAPLike scanner
// pairs the same taint engine (with method tracking) with a symptom
// heuristic: a flagged sink is suppressed when its enclosing scope calls a
// known validation/sanitization function.
package baseline

import (
	"strings"

	"repro/internal/callgraph"
	"repro/internal/phpast"
	"repro/internal/phpparser"
)

// Hit is one flagged sink.
type Hit struct {
	File string
	Line int
	Sink string
	// Suppressed marks WAP hits silenced by the symptom heuristic.
	Suppressed bool
}

// Report is a baseline scan result.
type Report struct {
	Name    string
	Flagged bool
	Hits    []Hit
}

// config selects the scanner flavour.
type config struct {
	trackMethods bool
	suppress     bool
}

// RIPSLike scans sources with the RIPS-style taint-only analysis.
func RIPSLike(name string, sources map[string]string) Report {
	return scan(name, sources, config{trackMethods: false, suppress: false})
}

// RIPSLikeFiles runs the RIPS-style taint-only analysis over already
// parsed files. The uchecker scanner's degradation ladder uses it as the
// final rung: when symbolic execution cannot finish a root within budget,
// this conservative check still yields (low-confidence) signal without
// re-parsing the sources. Method taint tracking is enabled so flows
// through object methods are not silently dropped — a degraded rung
// should over- rather than under-approximate.
func RIPSLikeFiles(name string, files []*phpast.File) Report {
	return scanFiles(name, files, config{trackMethods: true, suppress: false})
}

// WAPLike scans sources with the WAP-style taint + symptom-suppression
// analysis.
func WAPLike(name string, sources map[string]string) Report {
	return scan(name, sources, config{trackMethods: true, suppress: true})
}

// symptomFuncs are the validation/sanitization calls WAP's classifier
// treats as evidence that the developer handled the input.
var symptomFuncs = map[string]bool{
	"in_array":           true,
	"pathinfo":           true,
	"preg_match":         true,
	"strpos":             true,
	"stripos":            true,
	"is_uploaded_file":   true,
	"wp_check_filetype":  true,
	"getimagesize":       true,
	"finfo_file":         true,
	"str_replace":        true,
	"sanitize_file_name": true,
	"preg_replace":       true,
}

// scope is a taint domain: one per function plus one for top-level code.
type scope struct {
	name    string // "" for file scope
	body    []phpast.Stmt
	file    string
	tainted map[string]bool
	// symptoms reports whether the scope contains a validation symptom.
	symptoms bool
}

type scanner struct {
	cfg config
	// scopes maps scope keys ("" for each file's top level, lower-cased
	// function names otherwise) to taint domains.
	scopes map[string]*scope
	// taintedRet marks functions whose return value is tainted.
	taintedRet map[string]bool
	funcs      map[string]*phpast.FuncDecl
	hits       []Hit
}

func scan(name string, sources map[string]string, cfg config) Report {
	var files []*phpast.File
	for fname, src := range sources {
		f, _ := phpparser.Parse(fname, src)
		files = append(files, f)
	}
	return scanFiles(name, files, cfg)
}

func scanFiles(name string, files []*phpast.File, cfg config) Report {
	s := &scanner{
		cfg:        cfg,
		scopes:     map[string]*scope{},
		taintedRet: map[string]bool{},
		funcs:      map[string]*phpast.FuncDecl{},
	}
	s.collect(files)

	// Flow-insensitive fixpoint: propagate taint until stable (bounded).
	for i := 0; i < 10; i++ {
		if !s.pass(false) {
			break
		}
	}
	// Final pass records sink hits.
	s.pass(true)

	rep := Report{Name: name, Hits: s.hits}
	for _, h := range s.hits {
		if !h.Suppressed {
			rep.Flagged = true
		}
	}
	return rep
}

// collect registers scopes: one per file top level, one per function and
// (when trackMethods) per method.
func (s *scanner) collect(files []*phpast.File) {
	for _, f := range files {
		top := &scope{name: "", file: f.Name, tainted: map[string]bool{}}
		for _, st := range f.Stmts {
			switch st.(type) {
			case *phpast.FuncDecl, *phpast.ClassDecl:
			default:
				top.body = append(top.body, st)
			}
		}
		s.scopes["file:"+f.Name] = top

		phpast.Walk(f, func(n phpast.Node) bool {
			switch d := n.(type) {
			case *phpast.FuncDecl:
				key := strings.ToLower(d.Name)
				s.funcs[key] = d
				s.scopes[key] = &scope{name: key, file: f.Name, body: d.Body, tainted: map[string]bool{}}
			case *phpast.ClassDecl:
				for _, m := range d.Methods {
					if !s.cfg.trackMethods {
						continue
					}
					key := strings.ToLower(m.Name)
					decl := &phpast.FuncDecl{P: m.P, Name: m.Name, Params: m.Params, Body: m.Body}
					s.funcs[key] = decl
					s.scopes[key] = &scope{name: key, file: f.Name, body: m.Body, tainted: map[string]bool{}}
				}
			}
			return true
		})
	}
	// Symptom scan per scope.
	for _, sc := range s.scopes {
		for _, st := range sc.body {
			phpast.Walk(st, func(n phpast.Node) bool {
				if c, ok := n.(*phpast.Call); ok {
					if name, ok := phpast.CalleeName(c); ok && symptomFuncs[name] {
						sc.symptoms = true
					}
				}
				return true
			})
		}
	}
}

// pass walks every scope once, propagating taint; it reports whether any
// taint fact changed. When record is set, sink hits are appended.
func (s *scanner) pass(record bool) bool {
	changed := false
	for _, sc := range s.scopes {
		for _, st := range sc.body {
			phpast.Walk(st, func(n phpast.Node) bool {
				switch x := n.(type) {
				case *phpast.Assign:
					if s.exprTainted(x.Value, sc) {
						if v := rootVar(x.Target); v != "" && !sc.tainted[v] {
							sc.tainted[v] = true
							changed = true
						}
					}
				case *phpast.Foreach:
					if s.exprTainted(x.Arr, sc) {
						if v := rootVar(x.Val); v != "" && !sc.tainted[v] {
							sc.tainted[v] = true
							changed = true
						}
					}
				case *phpast.Return:
					if sc.name != "" && x.X != nil && s.exprTainted(x.X, sc) {
						if !s.taintedRet[sc.name] {
							s.taintedRet[sc.name] = true
							changed = true
						}
					}
				case *phpast.Call:
					if s.propagateCall(x, sc, record) {
						changed = true
					}
				case *phpast.MethodCall:
					if s.cfg.trackMethods {
						if s.propagateMethod(x, sc) {
							changed = true
						}
					}
				}
				return true
			})
		}
	}
	return changed
}

// propagateCall handles taint into user-function parameters and sink
// detection.
func (s *scanner) propagateCall(x *phpast.Call, sc *scope, record bool) bool {
	name, ok := phpast.CalleeName(x)
	if !ok {
		return false
	}
	changed := false
	if callgraph.Sinks[name] {
		if record {
			// The "source" argument: move_uploaded_file/copy/rename take it
			// first, file_put_contents second. Taint analysis without
			// extension modeling flags the sink if either the data or the
			// name is tainted.
			tainted := false
			for _, a := range x.Args {
				if s.exprTainted(a, sc) {
					tainted = true
				}
			}
			if tainted {
				s.hits = append(s.hits, Hit{
					File:       sc.file,
					Line:       int(x.P.Line),
					Sink:       name,
					Suppressed: s.cfg.suppress && sc.symptoms,
				})
			}
		}
		return false
	}
	callee, ok := s.funcs[name]
	if !ok {
		return false
	}
	calleeScope := s.scopes[name]
	if calleeScope == nil {
		return false
	}
	for i, a := range x.Args {
		if i >= len(callee.Params) {
			break
		}
		if s.exprTainted(a, sc) && !calleeScope.tainted[callee.Params[i].Name] {
			calleeScope.tainted[callee.Params[i].Name] = true
			changed = true
		}
	}
	return changed
}

func (s *scanner) propagateMethod(x *phpast.MethodCall, sc *scope) bool {
	name := strings.ToLower(x.Method)
	callee, ok := s.funcs[name]
	if !ok {
		return false
	}
	calleeScope := s.scopes[name]
	if calleeScope == nil {
		return false
	}
	changed := false
	for i, a := range x.Args {
		if i >= len(callee.Params) {
			break
		}
		if s.exprTainted(a, sc) && !calleeScope.tainted[callee.Params[i].Name] {
			calleeScope.tainted[callee.Params[i].Name] = true
			changed = true
		}
	}
	return changed
}

// taintPassthrough lists built-ins whose result is tainted when any
// argument is.
var taintPassthrough = map[string]bool{
	"basename": true, "pathinfo": true, "strtolower": true,
	"strtoupper": true, "trim": true, "substr": true, "str_replace": true,
	"sprintf": true, "explode": true, "end": true, "sanitize_file_name": true,
	"stripslashes": true, "urldecode": true, "md5": true, "sha1": true,
	"implode": true, "reset": true, "current": true, "array_pop": true,
}

// exprTainted reports whether e is tainted in scope sc.
func (s *scanner) exprTainted(e phpast.Expr, sc *scope) bool {
	if e == nil {
		return false
	}
	tainted := false
	phpast.Walk(e, func(n phpast.Node) bool {
		if tainted {
			return false
		}
		switch x := n.(type) {
		case *phpast.Var:
			if x.Name == "_FILES" || sc.tainted[x.Name] {
				tainted = true
				return false
			}
		case *phpast.Call:
			if name, ok := phpast.CalleeName(x); ok {
				if s.taintedRet[name] {
					tainted = true
					return false
				}
				if !taintPassthrough[name] && s.funcs[name] == nil {
					// Opaque builtin: result untainted; still descend into
					// args for direct superglobal reads? RIPS treats opaque
					// results as clean — prune.
					return false
				}
			}
		case *phpast.MethodCall:
			if s.cfg.trackMethods && s.taintedRet[strings.ToLower(x.Method)] {
				tainted = true
				return false
			}
			if !s.cfg.trackMethods {
				return false // method results opaque in RIPS mode
			}
		}
		return true
	})
	return tainted
}

// rootVar returns the base variable name of an assignment target.
func rootVar(e phpast.Expr) string {
	switch x := e.(type) {
	case *phpast.Var:
		return x.Name
	case *phpast.ArrayDim:
		return rootVar(x.Arr)
	case *phpast.PropFetch:
		return rootVar(x.Obj)
	case *phpast.ListExpr:
		for _, it := range x.Items {
			if it != nil {
				return rootVar(it)
			}
		}
	}
	return ""
}
