package main

import (
	"bufio"
	"errors"
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// paper makes TestExperimentsBlocks check the -scale paper blocks too
// (15–25 s more on a 2-vCPU Xeon):
//
//	go test ./cmd/experiments -run TestExperimentsBlocks -args -paper
var paper = flag.Bool("paper", false, "also check EXPERIMENTS.md's -scale paper blocks")

// root is the checkout's root, seen from this package's directory.
var root = filepath.Join("..", "..")

// docBlock is a fenced block of EXPERIMENTS.md whose first line is a
// command, "$ experiments ...", and whose other lines are what it prints.
type docBlock struct {
	line    int // of the command
	command string
	want    string
}

// docBlocks returns every command block of the Markdown file at path.
func docBlocks(t *testing.T, path string) []docBlock {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var (
		blocks []docBlock
		cur    *docBlock
		fenced bool
		body   []string
	)
	lines := bufio.NewScanner(f)
	for n := 1; lines.Scan(); n++ {
		text := lines.Text()
		switch {
		case strings.HasPrefix(text, "```"):
			if fenced && cur != nil {
				cur.want = strings.Join(body, "\n")
				blocks = append(blocks, *cur)
			}
			fenced, cur, body = !fenced, nil, nil
		case fenced && cur == nil && body == nil && strings.HasPrefix(text, "$ experiments "):
			cur = &docBlock{line: n, command: strings.TrimPrefix(text, "$ ")}
		case fenced:
			body = append(body, text)
		}
	}
	if err := lines.Err(); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// normalize drops trailing whitespace from every line and trailing
// empty lines from the text.
func normalize(s string) []string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t")
	}
	for len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// TestExperimentsBlocks runs the command of every command block in
// EXPERIMENTS.md, as a child process of the test binary, two at a time,
// and fails where its stdout differs from the block, trailing whitespace
// aside. Blocks at -scale paper run only under -paper.
func TestExperimentsBlocks(t *testing.T) {
	var run []docBlock
	for _, b := range docBlocks(t, filepath.Join(root, "EXPERIMENTS.md")) {
		switch {
		case strings.Contains(b.command, "-scale small"):
			run = append(run, b)
		case strings.Contains(b.command, "-scale paper"):
			if *paper {
				run = append(run, b)
			}
		default:
			t.Errorf("EXPERIMENTS.md:%d: %q names no -scale", b.line, b.command)
		}
	}
	if len(run) == 0 {
		t.Fatal("EXPERIMENTS.md holds no command block to run")
	}
	outs := make([][]byte, len(run))
	errs := make([]error, len(run))
	var wg sync.WaitGroup
	slots := make(chan struct{}, 2)
	for i, b := range run {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			cmd := exec.Command(os.Args[0], strings.Fields(b.command)[1:]...)
			cmd.Env = append(os.Environ(), runMain+"=1")
			outs[i], errs[i] = cmd.Output()
		}()
	}
	wg.Wait()
	for i, b := range run {
		if errs[i] != nil {
			t.Errorf("EXPERIMENTS.md:%d: %s: %v", b.line, b.command, errs[i])
			continue
		}
		got, want := normalize(string(outs[i])), normalize(b.want)
		for j := 0; j < len(got) || j < len(want); j++ {
			var g, w string
			if j < len(got) {
				g = got[j]
			}
			if j < len(want) {
				w = want[j]
			}
			if g != w {
				t.Errorf("EXPERIMENTS.md:%d: %s: the block reads\n\t%q\nthe command prints\n\t%q\nstdout:\n%s",
					b.line+1+j, b.command, w, g, outs[i])
				break
			}
		}
	}
}

// sectionRef matches "DESIGN.md §N", a line break and a Go comment's
// slashes allowed between the two.
var sectionRef = regexp.MustCompile(`DESIGN\.md[\s/]*§\s?(\d+)`)

// TestDesignSectionReferences fails when a "DESIGN.md §N" reference in a
// Go file, a build note (SKILL.md) or the Markdown that describes the
// tree names a section DESIGN.md does not have.
func TestDesignSectionReferences(t *testing.T) {
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	files := []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "ROADMAP.md", filepath.Join("bench", "README.md")}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "SKILL.md") {
			rel, _ := filepath.Rel(root, path)
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, name := range files {
		text, err := os.ReadFile(filepath.Join(root, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range sectionRef.FindAllSubmatchIndex(text, -1) {
			refs++
			if n := string(text[m[2]:m[3]]); !sections[n] {
				line := 1 + strings.Count(string(text[:m[0]]), "\n")
				t.Errorf("%s:%d: DESIGN.md has no §%s", name, line, n)
			}
		}
	}
	if refs == 0 {
		t.Fatal("no DESIGN.md § reference found: the scan is broken")
	}
}
