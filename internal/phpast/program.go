package phpast

import (
	"path"
	"strings"
)

// Program is the file and function table of one scan, built from its
// parsed files. The call graph draws its edges and the interpreter
// dispatches its calls and includes through the same table, so a call
// or include edge names exactly the code the interpreter then runs.
type Program struct {
	// Units are the program's files, in scan order.
	Units []*Unit
	// Decls are the functions that won their names, in scan order; a
	// Func's ID is its index here.
	Decls []Func
	// Funcs maps each registered lowercase name to the declaration that
	// won it: a function under its name, a method under "class::method"
	// and, unless something took it first, its bare name.
	Funcs map[string]*Func
	units map[string]*Unit
}

// Unit is one file of a Program.
type Unit struct {
	*File
	// Top are the statements that run when the file is executed or
	// included: everything but function and class declarations.
	Top []Stmt
	// Decls is the file's part of Program.Decls: the functions whose
	// names this file's declarations won, in source order.
	Decls []Func
}

// Func is one declaration of the function table.
type Func struct {
	// ID is the function's index in Program.Decls.
	ID int
	// Name is the lowercase registered name, "f" or "class::method".
	Name string
	// File names the declaring file.
	File string
	// Decl is the declaration; a method is seen through a FuncDecl view
	// named "Class::method".
	Decl *FuncDecl
	// Method marks a class method.
	Method bool
}

// NewProgram builds the table for a scan's files, in scan order. PHP
// hoists declarations, so every function declared anywhere in a file
// is callable: at top level, in a block, a closure or a method body.
// The first declaration of a name in scan order wins it.
func NewProgram(files []*File) *Program {
	// Count the declarations first, so that Decls and Funcs are
	// allocated once at their final size and the pointers Funcs holds
	// into Decls stay valid.
	nFuncs, nMethods := 0, 0
	for _, f := range files {
		Walk(f, func(n Node) bool {
			switch d := n.(type) {
			case *FuncDecl:
				nFuncs++
			case *ClassDecl:
				nMethods += len(d.Methods)
			}
			return true
		})
	}
	p := &Program{
		Decls: make([]Func, 0, nFuncs+nMethods),
		Funcs: make(map[string]*Func, nFuncs+2*nMethods),
		units: make(map[string]*Unit, len(files)),
	}
	views := make([]FuncDecl, 0, nMethods)
	for _, f := range files {
		first := len(p.Decls)
		Walk(f, func(n Node) bool {
			switch d := n.(type) {
			case *FuncDecl:
				p.declare(strings.ToLower(d.Name), f.Name, d, false)
			case *ClassDecl:
				for _, m := range d.Methods {
					qual := d.Name + "::" + m.Name
					views = append(views, FuncDecl{P: m.P, Name: qual, Params: m.Params, Body: m.Body, EndLine: m.EndLine})
					if fn := p.declare(strings.ToLower(qual), f.Name, &views[len(views)-1], true); fn != nil {
						if bare := strings.ToLower(m.Name); p.Funcs[bare] == nil {
							p.Funcs[bare] = fn
						}
					}
				}
			}
			return true
		})
		u := &Unit{File: f, Top: topLevel(f.Stmts), Decls: p.Decls[first:len(p.Decls):len(p.Decls)]}
		p.Units = append(p.Units, u)
		p.units[f.Name] = u
	}
	return p
}

// declare registers a declaration under name unless an earlier one
// holds it, and returns its entry, or nil when it lost.
func (p *Program) declare(name, file string, decl *FuncDecl, method bool) *Func {
	if p.Funcs[name] != nil {
		return nil
	}
	p.Decls = append(p.Decls, Func{ID: len(p.Decls), Name: name, File: file, Decl: decl, Method: method})
	fn := &p.Decls[len(p.Decls)-1]
	p.Funcs[name] = fn
	return fn
}

// topLevel filters out declarations, which run only when called.
func topLevel(stmts []Stmt) []Stmt {
	n := 0
	for _, s := range stmts {
		if !isDecl(s) {
			n++
		}
	}
	if n == len(stmts) {
		return stmts
	}
	out := make([]Stmt, 0, n)
	for _, s := range stmts {
		if !isDecl(s) {
			out = append(out, s)
		}
	}
	return out
}

func isDecl(s Stmt) bool {
	switch s.(type) {
	case *FuncDecl, *ClassDecl:
		return true
	}
	return false
}

// Unit returns the file with the given name, or nil.
func (p *Program) Unit(name string) *Unit { return p.units[name] }

// Include resolves an include or require in the file named from: the
// path as written, then the path joined to the includer's directory,
// then the one file with the same base name. A path that is not a
// string literal (optionally after "__DIR__ ." or "dirname(__FILE__) ."),
// or a base name two files share, resolves to nil.
func (p *Program) Include(from string, inc *Include) *Unit {
	lit := includePath(inc.X)
	if lit == "" {
		return nil
	}
	if u := p.units[lit]; u != nil {
		return u
	}
	if u := p.units[path.Join(path.Dir(from), lit)]; u != nil {
		return u
	}
	base := path.Base(lit)
	var match *Unit
	for _, u := range p.Units {
		if path.Base(u.Name) == base {
			if match != nil {
				return nil // ambiguous
			}
			match = u
		}
	}
	return match
}

// includePath extracts a constant path from an include argument. Of a
// concatenation such as "__DIR__ . '/x.php'" it keeps the trailing
// literal, relative.
func includePath(e Expr) string {
	switch x := e.(type) {
	case *StringLit:
		return x.Value
	case *Binary:
		if x.Op == "." {
			if lit := includePath(x.R); lit != "" {
				return strings.TrimPrefix(lit, "/")
			}
		}
	}
	return ""
}

// Target is where a call site dispatches.
type Target struct {
	// Name is the lowercase name the call dispatches on: a function, a
	// sink or built-in, "class::method", a bare method name, or
	// "class::__construct".
	Name string
	// Args are the arguments the callee receives.
	Args []Expr
	// Func is the declaration the call runs, or nil when the program
	// declares none.
	Func *Func
}

// Target resolves a call site the way the interpreter dispatches it:
//
//   - f(…) calls f, and call_user_func('f', …) or
//     call_user_func_array('f', …) calls f with the remaining arguments;
//   - C::m(…) calls c::m when the program declares it, else m;
//   - $o->m(…) calls m, which finds a method by its bare name;
//   - new C(…) calls c::__construct.
//
// ok is false for anything else, including a call through a variable.
func (p *Program) Target(n Node) (t Target, ok bool) {
	switch x := n.(type) {
	case *Call:
		callee, named := x.Func.(*Name)
		if !named {
			return Target{}, false
		}
		t = Target{Name: strings.ToLower(callee.Value), Args: x.Args}
		for (t.Name == "call_user_func" || t.Name == "call_user_func_array") && len(t.Args) > 0 {
			lit, isLit := t.Args[0].(*StringLit)
			if !isLit {
				break
			}
			t = Target{Name: strings.ToLower(lit.Value), Args: t.Args[1:]}
		}
	case *StaticCall:
		t = Target{Name: strings.ToLower(x.Class + "::" + x.Method), Args: x.Args}
		if p.Funcs[t.Name] == nil {
			t.Name = strings.ToLower(x.Method)
		}
	case *MethodCall:
		t = Target{Name: strings.ToLower(x.Method), Args: x.Args}
	case *New:
		t = Target{Name: strings.ToLower(x.Class) + "::__construct", Args: x.Args}
	default:
		return Target{}, false
	}
	t.Func = p.Funcs[t.Name]
	return t, true
}
