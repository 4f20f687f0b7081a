package tuple

import "testing"

func TestTupleString(t *testing.T) {
	got := Tuple{Int(1), Str("a"), Null()}.String()
	if got != "(1,a,)" {
		t.Errorf("String() = %q", got)
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema("user", "follower")
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Index("follower") != 1 {
		t.Errorf("Index(follower) = %d", s.Index("follower"))
	}
	if s.Index("absent") != -1 {
		t.Errorf("Index(absent) = %d", s.Index("absent"))
	}
}

func TestSchemaClone(t *testing.T) {
	s := NewSchema("a", "b")
	c := s.Clone()
	c.Fields[0].Name = "z"
	if s.Fields[0].Name != "a" {
		t.Error("mutating clone affected original schema")
	}
}

func TestSchemaString(t *testing.T) {
	s := &Schema{Fields: []Field{{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeAny}}}
	if got := s.String(); got != "(a:int, b)" {
		t.Errorf("String = %q", got)
	}
}

func TestFieldTypeString(t *testing.T) {
	cases := map[FieldType]string{
		TypeAny:       "any",
		TypeInt:       "int",
		TypeFloat:     "float",
		TypeString:    "chararray",
		FieldType(42): "type(42)",
	}
	for ft, want := range cases {
		if got := ft.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ft, got, want)
		}
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		ft   FieldType
		raw  string
		want Value
	}{
		{TypeInt, "42", Int(42)},
		{TypeInt, "junk", Int(0)},
		{TypeFloat, "2.5", Float(2.5)},
		{TypeString, "42", Str("42")},
		{TypeAny, "42", Int(42)},
		{TypeAny, "-7", Int(-7)},
		{TypeAny, "4.2", Str("4.2")},
		{TypeAny, "abc", Str("abc")},
		{TypeAny, "", Str("")},
		{TypeAny, "-", Str("-")},
		{TypeAny, "+", Str("+")},
		{TypeAny, "+3", Int(3)},
	}
	for _, c := range cases {
		got := c.ft.Coerce(c.raw)
		if got.Kind() != c.want.Kind() || !Equal(got, c.want) {
			t.Errorf("%v.Coerce(%q) = %v (%v), want %v (%v)",
				c.ft, c.raw, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}
