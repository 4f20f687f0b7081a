package tuple

import (
	"fmt"
	"strings"
)

// Tuple is one row of a relation: an ordered list of Values.
type Tuple []Value

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
	return CanonicalInt(raw)
}

// CanonicalInt is the integer raw spells, for a raw whose IntForm is
// IntCanon: its digits summed, and nothing checked. A reader that knows
// the form of a whole column of values (dfs.Batch.Form) coerces each of
// them with it, where Coerce would look at every one again.
func CanonicalInt(raw string) int64 {
	var n int64
	for i := 0; i < len(raw); i++ {
		if raw[i] != '-' {
			n = n*10 + int64(raw[i]-'0')
		}
	}
	if raw != "" && raw[0] == '-' {
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
	return AppendEncoded(dst, Tuple{ft.Coerce(raw)})
}

// IntForm is what kind of integer text a value is, which decides how
// Coerce and AppendCoerced read it under TypeAny and TypeInt.
type IntForm uint8

// The forms of IntFormOf. Of a run of values (dfs.Batch.Form), IntCanon
// and IntNone say that every one of them has that form, and IntOther that
// neither is known.
const (
	// IntNone is text that does not look like an integer: TypeAny reads it
	// as the string it is, which encodes to itself.
	IntNone IntForm = iota
	// IntOther is integer text not in canonical form ("007", "+5", "-0",
	// 19 digits or more): it is parsed, and encodes to other bytes.
	IntOther
	// IntCanon is an integer as strconv formats it, short enough to fit
	// an int64: its digits are summed (CanonicalInt), and it encodes to
	// itself.
	IntCanon
)

// IntFormOf returns the form of s, which is a value's text as a string or
// as the bytes a block stores it in: the one rule of both Coerce and
// AppendCoerced, for a reader that learns it once for many values.
func IntFormOf[T string | []byte](s T) IntForm {
	switch {
	case canonicalInt(s):
		return IntCanon
	case looksInt(s):
		return IntOther
	}
	return IntNone
}

// canonicalInt reports whether s matches 0|-?[1-9][0-9]{0,17}: an
// integer as strconv formats it, short enough to be sure to fit an int64,
// so that parsing and formatting s gives s.
func canonicalInt[T string | []byte](s T) bool {
	if len(s) == 1 && s[0] == '0' {
		return true
	}
	if len(s) > 0 && s[0] == '-' {
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

func looksInt[T string | []byte](s T) bool {
	if len(s) == 0 {
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
