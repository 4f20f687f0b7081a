package pig

import (
	"strings"
	"testing"
	"testing/quick"
)

// Parser robustness: arbitrary input must never panic — it either parses
// or returns an error.

func TestParseNeverPanicsOnGarbage(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %q: %v", src, r)
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// mangleBase is a valid script: TestParseNeverPanicsOnMangledScripts
// parses it with byte ranges deleted (mangled).
const mangleBase = `
edges = LOAD 'in' AS (user:int, follower:int);
ne = FILTER edges BY follower != 0;
g = GROUP ne BY user;
counts = FOREACH g GENERATE group AS user, COUNT(ne) AS n;
o = ORDER counts BY n DESC;
top = LIMIT o 10;
STORE top INTO 'out';
`

// mangled returns mangleBase with byte ranges deleted: every seventh
// offset, ranges of 1, 5 and 23 bytes.
func mangled() []string {
	var out []string
	for start := 0; start < len(mangleBase); start += 7 {
		for _, width := range []int{1, 5, 23} {
			end := min(start+width, len(mangleBase))
			out = append(out, mangleBase[:start]+mangleBase[end:])
		}
	}
	return out
}

// deepNesting returns a script whose filter nests its column in depth
// parentheses.
func deepNesting(depth int) string {
	expr := strings.Repeat("(", depth) + "v" + strings.Repeat(")", depth)
	return "a = LOAD 'x' AS (v:int);\nb = FILTER a BY " + expr + " == 1;\nSTORE b INTO 'o';"
}

// longScript returns a linear chain of n filters.
func longScript(n int) string {
	var b strings.Builder
	b.WriteString("r0 = LOAD 'x' AS (v:int);\n")
	for i := 1; i <= n; i++ {
		b.WriteString("r")
		b.WriteString(itoa(i))
		b.WriteString(" = FILTER r")
		b.WriteString(itoa(i - 1))
		b.WriteString(" BY v != ")
		b.WriteString(itoa(i))
		b.WriteString(";\n")
	}
	b.WriteString("STORE r")
	b.WriteString(itoa(n))
	b.WriteString(" INTO 'o';\n")
	return b.String()
}

// ParseCorpus is the scripts the robustness tests parse, which FuzzParse
// seeds from too.
func ParseCorpus() []string {
	return append(mangled(), mangleBase, deepNesting(200), longScript(150))
}

func TestParseNeverPanicsOnMangledScripts(t *testing.T) {
	for i, src := range mangled() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutation %d %q: %v", i, src, r)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

func TestParseDeepExpressionNesting(t *testing.T) {
	if _, err := Parse(deepNesting(200)); err != nil {
		t.Fatalf("deeply nested expression should parse: %v", err)
	}
}

func TestParseLongScript(t *testing.T) {
	// A long chain of filters parses and builds a linear plan.
	const n = 150
	p, err := Parse(longScript(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Vertices) != n+2 {
		t.Errorf("vertices = %d, want %d", len(p.Vertices), n+2)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

func TestLexNeverPanics(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("lexer panic on %q: %v", src, r)
			}
		}()
		_, _ = lexAll(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
