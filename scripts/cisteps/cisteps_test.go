// Package cisteps holds one check: every `go test` step of the CI
// workflow that names tests names ones that exist. A -fuzz= target, and
// each |-alternative of a -run pattern, must match a test function in
// the packages its step runs, because go test exits 0 when either
// matches nothing, so a step left behind by a renamed or moved test
// passes while testing nothing. -run '^$', the idiom for running no
// test, is exempt.
//
//	go test ./scripts/cisteps
package cisteps

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const workflow = "../../.github/workflows/ci.yml"

// valued are the go test flags that take the next word as their value
// when written without '='.
var valued = map[string]bool{
	"-run": true, "-fuzz": true, "-bench": true, "-count": true, "-timeout": true,
	"-fuzztime": true, "-benchtime": true, "-fuzzminimizetime": true, "-cpu": true, "-parallel": true,
}

// step is one `go test` command line: the directory it runs in, its
// package patterns, and its -run and -fuzz patterns.
type step struct {
	line      int
	dir       string
	pkgs      []string
	run, fuzz string
}

// steps reads every go test command of the workflow, comments aside.
func steps(t *testing.T) []step {
	t.Helper()
	data, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	cd := regexp.MustCompile(`\bcd (\S+) &&`)
	var out []step
	for i, line := range strings.Split(string(data), "\n") {
		at := strings.Index(line, "go test ")
		if at < 0 || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		st := step{line: i + 1, dir: "../.."}
		if m := cd.FindStringSubmatch(line[:at]); m != nil {
			st.dir = filepath.Join(st.dir, m[1])
		}
		words := fields(line[at+len("go test "):])
		for j := 0; j < len(words); j++ {
			w := words[j]
			if !strings.HasPrefix(w, "-") {
				st.pkgs = append(st.pkgs, w)
				continue
			}
			name, val, ok := strings.Cut(w, "=")
			if !ok && valued[name] && j+1 < len(words) {
				j++
				val = words[j]
			}
			switch val = strings.Trim(val, `'"`); name {
			case "-run":
				st.run = val
			case "-fuzz":
				st.fuzz = val
			}
		}
		out = append(out, st)
	}
	return out
}

// fields splits a command line into words, unquoted, up to the first
// shell operator. The workflow quotes no pattern that holds a space.
func fields(s string) []string {
	var words []string
	for _, w := range strings.Fields(s) {
		if strings.ContainsAny(w[:1], "|&;>") {
			break
		}
		words = append(words, strings.Trim(w, `'"`))
	}
	return words
}

// testNames lists the test, fuzz and example functions declared in the
// test files of the packages st runs.
func testNames(t *testing.T, st step) []string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-f", "{{.Dir}}"}, st.pkgs...)...)
	cmd.Dir = st.dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("ci.yml:%d: go list %v: %v", st.line, st.pkgs, err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, dir := range strings.Fields(string(out)) {
		files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}

// matches reports whether pattern, a regexp as go test reads it, matches
// a name with one of prefixes.
func matches(t *testing.T, pattern string, names []string, prefixes ...string) bool {
	re, err := regexp.Compile(pattern)
	if err != nil {
		t.Errorf("bad pattern %q: %v", pattern, err)
		return true
	}
	for _, n := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(n, p) && re.MatchString(n) {
				return true
			}
		}
	}
	return false
}

func TestStepsNameExistingTests(t *testing.T) {
	var fuzzed, named int
	for _, st := range steps(t) {
		if st.fuzz == "" && (st.run == "" || st.run == "^$") {
			continue
		}
		names := testNames(t, st)
		if st.fuzz != "" {
			fuzzed++
			if !matches(t, st.fuzz, names, "Fuzz") {
				t.Errorf("ci.yml:%d: -fuzz=%s names no fuzz test in %v", st.line, st.fuzz, st.pkgs)
			}
		}
		if st.run == "" || st.run == "^$" {
			continue
		}
		for _, alt := range strings.Split(st.run, "|") {
			named++
			top, _, _ := strings.Cut(alt, "/")
			if !matches(t, top, names, "Test", "Fuzz", "Example") {
				t.Errorf("ci.yml:%d: -run alternative %q names no test in %v", st.line, alt, st.pkgs)
			}
		}
	}
	if fuzzed == 0 || named == 0 {
		t.Fatalf("read %d fuzz steps and %d -run names from %s: the workflow parse is broken", fuzzed, named, workflow)
	}
	t.Logf("checked %d fuzz steps and %d -run names", fuzzed, named)
}
