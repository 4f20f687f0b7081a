package pig

import (
	"fmt"
	"strconv"
	"strings"

	"clusterbft/internal/tuple"
)

// Expr is a scalar expression over one tuple. Expressions are built by
// the parser with unresolved column names; Bind resolves names to column
// indices against a schema before any Eval call.
type Expr interface {
	// Bind resolves column references against the schema.
	Bind(s *tuple.Schema) error
	// Eval computes the expression over one tuple. Eval must only be
	// called after a successful Bind.
	Eval(t tuple.Tuple) tuple.Value
	// String renders the expression in source-like form.
	String() string
}

// Columns calls visit with the index of every column e reads. It reports
// false for an expression type it does not know, which may read columns
// visit never saw. Valid only after Bind.
func Columns(e Expr, visit func(int)) bool {
	switch e := e.(type) {
	case *Col:
		visit(e.idx)
	case *Lit:
	case *Unary:
		return Columns(e.X, visit)
	case *Binary:
		return Columns(e.L, visit) && Columns(e.R, visit)
	case *Call:
		for _, a := range e.Args {
			if !Columns(a, visit) {
				return false
			}
		}
	default:
		return false
	}
	return true
}

// Col references a column by name ("user", "A::user") or by position
// ("$0"). Bind resolves it to an index.
type Col struct {
	Name string
	idx  int
}

// Bind resolves the column name. Resolution tries, in order: positional
// $N, exact name match, then unique suffix match on "::name" (so "user"
// finds "A::user" after a join when unambiguous).
func (c *Col) Bind(s *tuple.Schema) error {
	if strings.HasPrefix(c.Name, "$") {
		n, err := strconv.Atoi(c.Name[1:])
		if err != nil || n < 0 || n >= s.Len() {
			return fmt.Errorf("pig: positional reference %s out of range for schema %s", c.Name, s)
		}
		c.idx = n
		return nil
	}
	if i := s.Index(c.Name); i >= 0 {
		c.idx = i
		return nil
	}
	// Suffix match for qualified columns.
	found := -1
	for i, f := range s.Fields {
		if strings.HasSuffix(f.Name, "::"+c.Name) {
			if found >= 0 {
				return fmt.Errorf("pig: column %q is ambiguous in schema %s", c.Name, s)
			}
			found = i
		}
	}
	if found < 0 {
		return fmt.Errorf("pig: unknown column %q in schema %s", c.Name, s)
	}
	c.idx = found
	return nil
}

// Eval returns the referenced field, or null if the tuple is short.
func (c *Col) Eval(t tuple.Tuple) tuple.Value {
	if c.idx < len(t) {
		return t[c.idx]
	}
	return tuple.Null()
}

// Index returns the resolved column index; valid only after Bind.
func (c *Col) Index() int { return c.idx }

func (c *Col) String() string { return c.Name }

// Lit is a literal constant.
type Lit struct {
	V tuple.Value
}

// Bind is a no-op for literals.
func (l *Lit) Bind(*tuple.Schema) error { return nil }

// Eval returns the constant.
func (l *Lit) Eval(tuple.Tuple) tuple.Value { return l.V }

func (l *Lit) String() string {
	if l.V.Kind() == tuple.KindString {
		return "'" + l.V.Str() + "'"
	}
	return l.V.Str()
}

// Binary applies an infix operator: arithmetic (+ - * / %), comparison
// (== != < <= > >=) or logical (and, or).
type Binary struct {
	Op   string
	L, R Expr
}

// Bind binds both operands.
func (b *Binary) Bind(s *tuple.Schema) error {
	if err := b.L.Bind(s); err != nil {
		return err
	}
	return b.R.Bind(s)
}

// Eval applies the operator. Logical operators short-circuit.
func (b *Binary) Eval(t tuple.Tuple) tuple.Value {
	switch b.Op {
	case "and":
		if !b.L.Eval(t).Truthy() {
			return tuple.Bool(false)
		}
		return tuple.Bool(b.R.Eval(t).Truthy())
	case "or":
		if b.L.Eval(t).Truthy() {
			return tuple.Bool(true)
		}
		return tuple.Bool(b.R.Eval(t).Truthy())
	}
	lv, rv := b.L.Eval(t), b.R.Eval(t)
	switch b.Op {
	case "+":
		return tuple.Add(lv, rv)
	case "-":
		return tuple.Sub(lv, rv)
	case "*":
		return tuple.Mul(lv, rv)
	case "/":
		return tuple.Div(lv, rv)
	case "%":
		return tuple.Mod(lv, rv)
	case "==":
		return tuple.Bool(tuple.Equal(lv, rv))
	case "!=":
		return tuple.Bool(!tuple.Equal(lv, rv))
	case "<":
		return tuple.Bool(tuple.Compare(lv, rv) < 0)
	case "<=":
		return tuple.Bool(tuple.Compare(lv, rv) <= 0)
	case ">":
		return tuple.Bool(tuple.Compare(lv, rv) > 0)
	case ">=":
		return tuple.Bool(tuple.Compare(lv, rv) >= 0)
	default:
		return tuple.Null()
	}
}

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Unary applies "not" or arithmetic negation.
type Unary struct {
	Op string // "not" or "-"
	X  Expr
}

// Bind binds the operand.
func (u *Unary) Bind(s *tuple.Schema) error { return u.X.Bind(s) }

// Eval applies the operator.
func (u *Unary) Eval(t tuple.Tuple) tuple.Value {
	v := u.X.Eval(t)
	switch u.Op {
	case "not":
		return tuple.Bool(!v.Truthy())
	case "-":
		return tuple.Sub(tuple.Int(0), v)
	default:
		return tuple.Null()
	}
}

func (u *Unary) String() string { return fmt.Sprintf("%s(%s)", u.Op, u.X) }

// Call invokes a built-in scalar function. Aggregate function names
// (COUNT, SUM, ...) never reach Eval: the plan builder recognizes them
// inside FOREACH..GENERATE over a grouped relation and converts them to
// Aggregate items.
type Call struct {
	Func string // lower-cased by the parser
	Args []Expr
}

// scalarFuncs lists supported scalar built-ins with their arities.
var scalarFuncs = map[string]int{
	"concat":    2,
	"size":      1,
	"trunc":     1,
	"abs":       1,
	"upper":     1,
	"lower":     1,
	"substring": 3,
	"round":     1,
	"replace":   3,
}

// Bind checks the function exists with the right arity and binds args.
func (c *Call) Bind(s *tuple.Schema) error {
	arity, ok := scalarFuncs[c.Func]
	if !ok {
		return fmt.Errorf("pig: unknown function %s", strings.ToUpper(c.Func))
	}
	if len(c.Args) != arity {
		return fmt.Errorf("pig: %s takes %d argument(s), got %d", strings.ToUpper(c.Func), arity, len(c.Args))
	}
	for _, a := range c.Args {
		if err := a.Bind(s); err != nil {
			return err
		}
	}
	return nil
}

// Eval applies the function.
func (c *Call) Eval(t tuple.Tuple) tuple.Value {
	switch c.Func {
	case "concat":
		return tuple.Str(c.Args[0].Eval(t).Str() + c.Args[1].Eval(t).Str())
	case "size":
		return tuple.Int(int64(len(c.Args[0].Eval(t).Str())))
	case "trunc":
		return tuple.Truncate(c.Args[0].Eval(t))
	case "abs":
		v := c.Args[0].Eval(t)
		if v.Kind() == tuple.KindFloat {
			if f := v.Float(); f < 0 {
				return tuple.Float(-f)
			}
			return v
		}
		if i := v.Int(); i < 0 {
			return tuple.Int(-i)
		}
		return tuple.Int(v.Int())
	case "upper":
		return tuple.Str(strings.ToUpper(c.Args[0].Eval(t).Str()))
	case "lower":
		return tuple.Str(strings.ToLower(c.Args[0].Eval(t).Str()))
	case "substring":
		s := c.Args[0].Eval(t).Str()
		start := int(c.Args[1].Eval(t).Int())
		length := int(c.Args[2].Eval(t).Int())
		if start < 0 {
			start = 0
		}
		if start >= len(s) || length <= 0 {
			return tuple.Str("")
		}
		end := start + length
		if end > len(s) {
			end = len(s)
		}
		return tuple.Str(s[start:end])
	case "round":
		v := c.Args[0].Eval(t)
		if v.Kind() != tuple.KindFloat {
			return tuple.Int(v.Int())
		}
		f := v.Float()
		if f >= 0 {
			return tuple.Int(int64(f + 0.5))
		}
		return tuple.Int(int64(f - 0.5))
	case "replace":
		return tuple.Str(strings.ReplaceAll(
			c.Args[0].Eval(t).Str(),
			c.Args[1].Eval(t).Str(),
			c.Args[2].Eval(t).Str()))
	default:
		return tuple.Null()
	}
}

func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return strings.ToUpper(c.Func) + "(" + strings.Join(args, ", ") + ")"
}

// IsAggregateFunc reports whether name (any case) is one of the five
// aggregate functions supported over grouped relations.
func IsAggregateFunc(name string) bool {
	switch strings.ToLower(name) {
	case "count", "sum", "avg", "min", "max":
		return true
	default:
		return false
	}
}
