package interp

import "repro/internal/sexpr"

// Concrete-value semantics: PHP's scalar coercions and the operators the
// evaluator folds when every operand is concrete, so constant control
// flow does not fork paths.

// concreteString converts a concrete value to its PHP string coercion.
func concreteString(v sexpr.Expr) (string, bool) {
	switch x := v.(type) {
	case sexpr.StrVal:
		return string(x), true
	case sexpr.IntVal:
		return itoa64(int64(x)), true
	case sexpr.BoolVal:
		if x {
			return "1", true
		}
		return "", true
	case sexpr.NullVal:
		return "", true
	}
	return "", false
}

// concreteInt converts a concrete value to its PHP integer coercion.
func concreteInt(v sexpr.Expr) (int64, bool) {
	switch x := v.(type) {
	case sexpr.IntVal:
		return int64(x), true
	case sexpr.BoolVal:
		if x {
			return 1, true
		}
		return 0, true
	case sexpr.NullVal:
		return 0, true
	}
	return 0, false
}

// concreteTruthy is PHP boolean coercion for concrete scalar values.
func concreteTruthy(v sexpr.Expr) (bool, bool) {
	switch x := v.(type) {
	case sexpr.BoolVal:
		return bool(x), true
	case sexpr.IntVal:
		return x != 0, true
	case sexpr.StrVal:
		return x != "" && x != "0", true
	case sexpr.NullVal:
		return false, true
	case sexpr.FloatVal:
		return x != 0, true
	}
	return false, false
}

// concreteEqual compares concrete values; strict selects === semantics.
// The bool result is only valid when ok is true.
func concreteEqual(a, b sexpr.Expr, strict bool) (bool, bool) {
	if strict {
		return sexpr.Equal(a, b), true
	}
	// Loose comparison for same-kind values and common coercions.
	as, aok := a.(sexpr.StrVal)
	bs, bok := b.(sexpr.StrVal)
	if aok && bok {
		return as == bs, true
	}
	ai, aok2 := concreteInt(a)
	bi, bok2 := concreteInt(b)
	if aok2 && bok2 {
		return ai == bi, true
	}
	return sexpr.Equal(a, b), true
}

// itoa64 formats an int64 in decimal without allocating through strconv's
// generic path (hot in string coercions).
func itoa64(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// foldBinaryValues computes the concrete result of `a op b` for concrete
// operands. "??" is deliberately not handled: it yields an existing
// operand label rather than allocating a result.
func foldBinaryValues(op string, a, b sexpr.Expr) (sexpr.Expr, bool) {
	switch op {
	case ".":
		ls, lok := concreteString(a)
		rs, rok := concreteString(b)
		if lok && rok {
			return sexpr.StrVal(ls + rs), true
		}
	case "+", "-", "*", "%":
		li, lok := concreteInt(a)
		ri, rok := concreteInt(b)
		if lok && rok {
			switch op {
			case "+":
				return sexpr.IntVal(li + ri), true
			case "-":
				return sexpr.IntVal(li - ri), true
			case "*":
				return sexpr.IntVal(li * ri), true
			case "%":
				if ri != 0 {
					return sexpr.IntVal(li % ri), true
				}
			}
		}
	case "==", "!=", "===", "!==":
		if eq, ok := concreteEqual(a, b, op == "===" || op == "!=="); ok {
			if op == "!=" || op == "!==" {
				eq = !eq
			}
			return sexpr.BoolVal(eq), true
		}
	case "<", ">", "<=", ">=":
		li, lok := concreteInt(a)
		ri, rok := concreteInt(b)
		if lok && rok {
			var r bool
			switch op {
			case "<":
				r = li < ri
			case ">":
				r = li > ri
			case "<=":
				r = li <= ri
			case ">=":
				r = li >= ri
			}
			return sexpr.BoolVal(r), true
		}
	case "&&", "||":
		lb, lok := concreteTruthy(a)
		rb, rok := concreteTruthy(b)
		if lok && rok {
			if op == "&&" {
				return sexpr.BoolVal(lb && rb), true
			}
			return sexpr.BoolVal(lb || rb), true
		}
	}
	return nil, false
}

// foldUnaryValue computes the concrete result of a unary operator applied to a
// concrete value. Unary "+" is not handled: it yields the operand label
// itself, allocating nothing.
func foldUnaryValue(op string, v sexpr.Expr) (sexpr.Expr, bool) {
	switch op {
	case "!":
		if b, ok := concreteTruthy(v); ok {
			return sexpr.BoolVal(!b), true
		}
	case "-":
		if x, ok := v.(sexpr.IntVal); ok {
			return sexpr.IntVal(-x), true
		}
		if x, ok := v.(sexpr.FloatVal); ok {
			return sexpr.FloatVal(-x), true
		}
	}
	return nil, false
}

// foldCastValue computes the concrete result of a (type) cast applied to a
// concrete value.
func foldCastValue(typ string, v sexpr.Expr) (sexpr.Expr, bool) {
	switch typ {
	case "int":
		if x, ok := concreteInt(v); ok {
			return sexpr.IntVal(x), true
		}
	case "string":
		if x, ok := concreteString(v); ok {
			return sexpr.StrVal(x), true
		}
	case "bool":
		if x, ok := concreteTruthy(v); ok {
			return sexpr.BoolVal(x), true
		}
	}
	return nil, false
}
