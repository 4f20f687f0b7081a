package tuple

import (
	"fmt"
	"strings"
)

// Tuple is one row of a relation: an ordered list of Values.
type Tuple []Value

// Clone returns a copy of t; Values are immutable so a shallow copy of the
// slice suffices.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// String renders the tuple as a parenthesized, comma-separated list.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v.Str())
	}
	b.WriteByte(')')
	return b.String()
}

// Concat returns the concatenation of t followed by u as a new tuple.
func Concat(t, u Tuple) Tuple {
	c := make(Tuple, 0, len(t)+len(u))
	c = append(c, t...)
	c = append(c, u...)
	return c
}

// CompareTuples orders tuples field by field; shorter tuples sort first on
// a common-prefix tie.
func CompareTuples(a, b Tuple) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// EqualTuples reports whether a and b have equal length and fields.
func EqualTuples(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	return CompareTuples(a, b) == 0
}

// FieldType is the declared type of a schema column.
type FieldType uint8

// Supported declared column types. TypeAny defers typing to parse time
// (values that look like integers become ints, else strings).
const (
	TypeAny FieldType = iota
	TypeInt
	TypeFloat
	TypeString
)

// String returns the PigLatin-style name of the type.
func (ft FieldType) String() string {
	switch ft {
	case TypeAny:
		return "any"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeString:
		return "chararray"
	default:
		return fmt.Sprintf("type(%d)", uint8(ft))
	}
}

// Field is one named, typed column of a Schema.
type Field struct {
	Name string
	Type FieldType
}

// Schema describes the columns of a relation.
type Schema struct {
	Fields []Field
}

// NewSchema builds a schema of untyped (TypeAny) columns from names.
func NewSchema(names ...string) *Schema {
	s := &Schema{Fields: make([]Field, len(names))}
	for i, n := range names {
		s.Fields[i] = Field{Name: n, Type: TypeAny}
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Fields) }

// ColType returns the type the decoder coerces column i by: its declared
// type, or TypeAny past the schema's columns and under a nil schema.
func (s *Schema) ColType(i int) FieldType {
	if s != nil && i < len(s.Fields) {
		return s.Fields[i].Type
	}
	return TypeAny
}

// Index returns the position of the named column, or -1 if absent.
func (s *Schema) Index(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		names[i] = f.Name
	}
	return names
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{Fields: make([]Field, len(s.Fields))}
	copy(c.Fields, s.Fields)
	return c
}

// String renders the schema as "(a:int, b:chararray)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		if f.Type != TypeAny {
			b.WriteByte(':')
			b.WriteString(f.Type.String())
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Coerce parses raw column text according to the declared field type.
// TypeAny infers: integer-looking text becomes an int, else string.
func (ft FieldType) Coerce(raw string) Value {
	switch ft {
	case TypeInt:
		return Int(parseInt(raw))
	case TypeFloat:
		return Float(Str(raw).Float())
	case TypeString:
		return Str(raw)
	default:
		if looksInt(raw) {
			return Int(parseInt(raw))
		}
		return Str(raw)
	}
}

// parseInt is Str(raw).Int(). An integer in canonical form, which nearly
// every integer column holds, is summed from its digits: it cannot
// overflow, and nothing is trimmed or handed to strconv.
func parseInt(raw string) int64 {
	if !canonicalInt(raw) {
		return Str(raw).Int()
	}
	var n int64
	for i := 0; i < len(raw); i++ {
		if raw[i] != '-' {
			n = n*10 + int64(raw[i]-'0')
		}
	}
	if raw[0] == '-' {
		return -n
	}
	return n
}

// AppendCoerced appends the encoded text of ft.Coerce(raw) — what
// AppendEncoded writes for the value — for a raw free of tab, newline
// and backslash. Where raw is provably that text already it is copied,
// and nothing is parsed: a string stays as it is (there is nothing in it
// to escape), and an integer in canonical form formats back to itself.
// Everything else is coerced and encoded.
func (ft FieldType) AppendCoerced(dst []byte, raw string) []byte {
	switch ft {
	case TypeString:
		return append(dst, raw...)
	case TypeInt:
		if canonicalInt(raw) {
			return append(dst, raw...)
		}
	case TypeAny:
		if canonicalInt(raw) || !looksInt(raw) {
			return append(dst, raw...)
		}
	}
	return appendEscapedValue(dst, ft.Coerce(raw))
}

// canonicalInt reports whether s matches 0|-?[1-9][0-9]{0,17}: an
// integer as strconv formats it, short enough to be sure to fit an int64,
// so that parsing and formatting s gives s.
func canonicalInt(s string) bool {
	if s == "0" {
		return true
	}
	if s != "" && s[0] == '-' {
		s = s[1:]
	}
	if len(s) == 0 || len(s) > 18 || s[0] < '1' || s[0] > '9' {
		return false
	}
	for i := 1; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func looksInt(s string) bool {
	if s == "" {
		return false
	}
	i := 0
	if s[0] == '-' || s[0] == '+' {
		if len(s) == 1 {
			return false
		}
		i = 1
	}
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
