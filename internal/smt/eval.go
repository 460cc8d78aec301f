package smt

import (
	"fmt"
	"strings"
)

// Value is a ground value of one of the three sorts.
type Value struct {
	Sort Sort
	B    bool
	I    int64
	S    string
}

// BoolValue wraps a bool.
func BoolValue(b bool) Value { return Value{Sort: SortBool, B: b} }

// IntValue wraps an int.
func IntValue(i int64) Value { return Value{Sort: SortInt, I: i} }

// StrValue wraps a string.
func StrValue(s string) Value { return Value{Sort: SortString, S: s} }

func (v Value) String() string {
	switch v.Sort {
	case SortBool:
		return fmt.Sprintf("%v", v.B)
	case SortInt:
		return fmt.Sprintf("%d", v.I)
	default:
		return fmt.Sprintf("%q", v.S)
	}
}

// Model assigns values to variable names.
type Model map[string]Value

// Eval evaluates a ground or fully-assigned term under the model. It is the
// solver's reference evaluator: every model the bounded search finds, and
// the default model of a cube that rewrites to true, is re-checked with it
// against the original formula before Sat is reported. The one Sat answer
// it does not check is a whole formula that rewrites to true: CheckCtx
// then returns default values for its variables without evaluation. The
// search plan (plan.go) is tested against Eval. It returns an error for
// variables missing from the model or sort confusion.
func Eval(t *Term, m Model) (Value, error) {
	switch t.Op {
	case OpBoolConst:
		return BoolValue(t.B), nil
	case OpIntConst:
		return IntValue(t.I), nil
	case OpStrConst:
		return StrValue(t.S), nil
	case OpVar:
		v, ok := m[t.S]
		if !ok {
			return Value{}, fmt.Errorf("smt: unbound variable %s", t.S)
		}
		if v.Sort != t.sort {
			return Value{}, fmt.Errorf("smt: variable %s bound to %v, want %v", t.S, v.Sort, t.sort)
		}
		return v, nil
	}

	args := make([]Value, len(t.Args))
	for i, a := range t.Args {
		v, err := Eval(a, m)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}

	switch t.Op {
	case OpNot:
		return BoolValue(!args[0].B), nil
	case OpAnd:
		for _, a := range args {
			if !a.B {
				return BoolValue(false), nil
			}
		}
		return BoolValue(true), nil
	case OpOr:
		for _, a := range args {
			if a.B {
				return BoolValue(true), nil
			}
		}
		return BoolValue(false), nil
	case OpEq:
		a, b := args[0], args[1]
		if a.Sort != b.Sort {
			return Value{}, fmt.Errorf("smt: = applied to %v and %v", a.Sort, b.Sort)
		}
		switch a.Sort {
		case SortBool:
			return BoolValue(a.B == b.B), nil
		case SortInt:
			return BoolValue(a.I == b.I), nil
		default:
			return BoolValue(a.S == b.S), nil
		}
	case OpIte:
		if args[0].B {
			return args[1], nil
		}
		return args[2], nil
	case OpAdd:
		var sum int64
		for _, a := range args {
			sum += a.I
		}
		return IntValue(sum), nil
	case OpSub:
		return IntValue(args[0].I - args[1].I), nil
	case OpMul:
		prod := int64(1)
		for _, a := range args {
			prod *= a.I
		}
		return IntValue(prod), nil
	case OpNeg:
		return IntValue(-args[0].I), nil
	case OpLt:
		return BoolValue(args[0].I < args[1].I), nil
	case OpLe:
		return BoolValue(args[0].I <= args[1].I), nil
	case OpGt:
		return BoolValue(args[0].I > args[1].I), nil
	case OpGe:
		return BoolValue(args[0].I >= args[1].I), nil
	case OpConcat:
		var sb strings.Builder
		for _, a := range args {
			sb.WriteString(a.S)
		}
		return StrValue(sb.String()), nil
	case OpLen:
		return IntValue(int64(len(args[0].S))), nil
	case OpSuffixOf:
		return BoolValue(strings.HasSuffix(args[1].S, args[0].S)), nil
	case OpPrefixOf:
		return BoolValue(strings.HasPrefix(args[1].S, args[0].S)), nil
	case OpContains:
		return BoolValue(strings.Contains(args[0].S, args[1].S)), nil
	case OpIndexOf:
		return IntValue(indexOf(args[0].S, args[1].S, args[2].I, strings.Index)), nil
	case OpReplace:
		return StrValue(replaceFirst(args[0].S, args[1].S, args[2].S)), nil
	case OpSubstr:
		return StrValue(substr(args[0].S, args[1].I, args[2].I)), nil
	case OpToInt:
		return IntValue(strToInt(args[0].S)), nil
	case OpFromInt:
		if args[0].I < 0 {
			// SMT-LIB: str.from_int of a negative is "".
			return StrValue(""), nil
		}
		return StrValue(fmt.Sprintf("%d", args[0].I)), nil
	case OpAt:
		i := args[1].I
		if i < 0 || i >= int64(len(args[0].S)) {
			return StrValue(""), nil
		}
		return StrValue(string(args[0].S[i])), nil
	default:
		return Value{}, fmt.Errorf("smt: cannot evaluate op %v", t.Op)
	}
}

// indexOf implements SMT-LIB str.indexof semantics: the first position >=
// from where sub occurs in s, or -1. A negative from, or from beyond
// len(s), yields -1 — except that per SMT-LIB, (str.indexof s "" n) with
// 0 <= n <= len(s) is n. index is strings.Index or bytes.Index.
func indexOf[S ~string | ~[]byte](s, sub S, from int64, index func(S, S) int) int64 {
	if from < 0 || from > int64(len(s)) {
		return -1
	}
	i := index(s[from:], sub)
	if i < 0 {
		return -1
	}
	return from + int64(i)
}

// replaceFirst implements SMT-LIB str.replace: replaces the first
// occurrence of old in s by new; replacing "" prepends new.
func replaceFirst(s, old, new string) string {
	if old == "" {
		return new + s
	}
	i := strings.Index(s, old)
	if i < 0 {
		return s
	}
	return s[:i] + new + s[i+len(old):]
}

// substr implements SMT-LIB str.substr: the empty string when off is out of
// range or length is non-positive; otherwise the longest prefix of s[off:]
// of length at most length.
func substr[S ~string | ~[]byte](s S, off, length int64) S {
	if off < 0 || off >= int64(len(s)) || length <= 0 {
		return s[:0]
	}
	end := off + length
	if end > int64(len(s)) {
		end = int64(len(s))
	}
	return s[off:end]
}

// strToInt implements SMT-LIB str.to_int: the non-negative integer denoted
// by s if s consists solely of digits, otherwise -1. Leading zeros are
// accepted. Overflow returns -1.
func strToInt[S ~string | ~[]byte](s S) int64 {
	if len(s) == 0 {
		return -1
	}
	var v int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return -1
		}
		d := int64(c - '0')
		if v > (1<<62)/10 {
			return -1
		}
		v = v*10 + d
	}
	return v
}
