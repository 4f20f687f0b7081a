package tuple

import "strconv"

// The layered record encoder, kept as the reference the flat one
// (appendRecord) is held to: a call per value (appendEscapedValue), a
// string escaped byte by byte after its clean prefix, every other value
// through its text form (appendText), and lengths counted the same way.

// refEncoded is AppendEncoded by the layered encoder.
func refEncoded(dst []byte, t Tuple) []byte {
	for i, v := range t {
		if i > 0 {
			dst = append(dst, '\t')
		}
		dst = appendEscapedValue(dst, v)
	}
	return dst
}

// refEncodedLen is EncodedLen by the layered encoder.
func refEncodedLen(t Tuple) int {
	n := 0
	for i, v := range t {
		if i > 0 {
			n++
		}
		n += escapedValueLen(v)
	}
	return n
}

// appendEscapedValue appends the escaped text form of v. Numeric and
// null values never contain escape bytes, so only strings go through the
// escape scan.
func appendEscapedValue(dst []byte, v Value) []byte {
	if v.kind == KindString {
		return appendEscaped(dst, v.s)
	}
	return v.appendText(dst)
}

// escapedValueLen returns len of the escaped text form of v without
// allocating.
func escapedValueLen(v Value) int {
	if v.kind == KindString {
		return escapedLen(v.s)
	}
	return v.textLen()
}

func appendEscaped(dst []byte, s string) []byte {
	clean := 0 // s[:clean] holds nothing to escape
	for clean < len(s) && s[clean] != '\t' && s[clean] != '\n' && s[clean] != '\\' {
		clean++
	}
	dst = append(dst, s[:clean]...)
	for i := clean; i < len(s); i++ {
		switch s[i] {
		case '\t':
			dst = append(dst, '\\', 't')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\\':
			dst = append(dst, '\\', '\\')
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

// escapedLen is len(appendEscaped(nil, s)) without the encode.
func escapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\t', '\n', '\\':
			n++
		}
	}
	return n
}

// appendText appends the canonical textual form of v (exactly Str's
// output) to dst.
func (v Value) appendText(dst []byte) []byte {
	switch v.kind {
	case KindInt:
		return appendInt(dst, v.i())
	case KindFloat:
		return strconv.AppendFloat(dst, v.f(), 'g', -1, 64)
	case KindString:
		return append(dst, v.s...)
	default:
		return dst
	}
}

// textLen returns len(v.Str()) without allocating.
func (v Value) textLen() int {
	switch v.kind {
	case KindInt:
		return intLen(v.i())
	case KindFloat:
		var tmp [32]byte
		return len(strconv.AppendFloat(tmp[:0], v.f(), 'g', -1, 64))
	case KindString:
		return len(v.s)
	default:
		return 0
	}
}
