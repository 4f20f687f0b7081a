package tuple

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeSimple(t *testing.T) {
	in := Tuple{Int(1), Str("hello"), Int(-3)}
	line := EncodeLine(in)
	if line != "1\thello\t-3" {
		t.Fatalf("EncodeLine = %q", line)
	}
	out := DecodeLine(line, nil)
	if !EqualTuples(in, out) {
		t.Errorf("round trip: got %v, want %v", out, in)
	}
}

func TestEncodeEscaping(t *testing.T) {
	in := Tuple{Str("a\tb"), Str("c\nd"), Str(`e\f`)}
	line := EncodeLine(in)
	if strings.Contains(line, "\n") {
		t.Fatalf("encoded line contains raw newline: %q", line)
	}
	out := DecodeLine(line, nil)
	if out[0].Str() != "a\tb" || out[1].Str() != "c\nd" || out[2].Str() != `e\f` {
		t.Errorf("escape round trip failed: %v", out)
	}
}

func TestDecodeWithSchema(t *testing.T) {
	s := &Schema{Fields: []Field{
		{Name: "id", Type: TypeInt},
		{Name: "name", Type: TypeString},
	}}
	out := DecodeLine("42\t42", s)
	if out[0].Kind() != KindInt || out[1].Kind() != KindString {
		t.Errorf("schema coercion failed: kinds %v %v", out[0].Kind(), out[1].Kind())
	}
}

func TestDecodeExtraColumnsBeyondSchema(t *testing.T) {
	s := NewSchema("a")
	out := DecodeLine("1\t2\tx", s)
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if out[1].Kind() != KindInt || out[2].Kind() != KindString {
		t.Error("extra columns should coerce as TypeAny")
	}
}

func TestDecodeEmptyLine(t *testing.T) {
	if got := DecodeLine("", nil); len(got) != 0 {
		t.Errorf("DecodeLine(\"\") = %v", got)
	}
}

func TestDecodeEmptyFields(t *testing.T) {
	out := DecodeLine("\t\t", nil)
	if len(out) != 3 {
		t.Fatalf("len = %d, want 3", len(out))
	}
	for i, v := range out {
		if v.Str() != "" {
			t.Errorf("field %d = %q, want empty", i, v.Str())
		}
	}
}

func TestAppendCanonicalMatchesEncodeLine(t *testing.T) {
	in := Tuple{Int(7), Str("x\ty"), Float(1.5)}
	canon := AppendCanonical(nil, in)
	if string(canon) != EncodeLine(in)+"\n" {
		t.Errorf("canonical %q != line %q + newline", canon, EncodeLine(in))
	}
}

func TestAppendCanonicalAppends(t *testing.T) {
	prefix := []byte("pre|")
	out := AppendCanonical(prefix, Tuple{Int(1)})
	if string(out) != "pre|1\n" {
		t.Errorf("AppendCanonical did not append: %q", out)
	}
}

func TestTrailingBackslashSurvives(t *testing.T) {
	in := Tuple{Str(`end\`)}
	out := DecodeLine(EncodeLine(in), nil)
	if out[0].Str() != `end\` {
		t.Errorf("trailing backslash round trip: %q", out[0].Str())
	}
}

func TestUnknownEscapePassthrough(t *testing.T) {
	// A stray escape not produced by the encoder is preserved verbatim.
	out := DecodeLine(`a\qb`, nil)
	if out[0].Str() != `a\qb` {
		t.Errorf("got %q", out[0].Str())
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(fields []string) bool {
		in := make(Tuple, len(fields))
		for i, s := range fields {
			in[i] = Str(s)
		}
		if len(in) == 0 || (len(in) == 1 && fields[0] == "") {
			// Empty tuples and single-empty-field tuples share the empty
			// line encoding (documented codec ambiguity); skip.
			return true
		}
		// Skip tuples whose fields would be re-inferred as ints; use
		// a schema to force string typing for a faithful comparison.
		schema := &Schema{Fields: make([]Field, len(in))}
		for i := range schema.Fields {
			schema.Fields[i] = Field{Name: "c", Type: TypeString}
		}
		out := DecodeLine(EncodeLine(in), schema)
		return EqualTuples(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalDeterminismProperty(t *testing.T) {
	f := func(a int64, s string) bool {
		tup := Tuple{Int(a), Str(s)}
		x := AppendCanonical(nil, tup)
		y := AppendCanonical(nil, tup.Clone())
		return string(x) == string(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
