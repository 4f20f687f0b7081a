// Package deadcode holds two checks. Every function and method declared
// in the module, outside bench/ and the facade (the root package, which is
// public API), is used by the non-test code of the module, examples/ or
// bench/, or is on the allowlist below with the reason it stays. And every
// exported field of the option structs (optionStructs) is written by that
// code, or is on the field allowlist with its reason: a knob no program
// sets is a default spelled as a field. Test code counts as neither a use
// nor a write, so an exported function or field kept alive only by its own
// tests fails here.
//
//	go test ./scripts/deadcode
//
// Uses are found by type-checking every package (go/types, with the
// standard library read from source), not by matching names: a method of a
// generic type counts through its origin, and a method that satisfies an
// interface (one a value is converted to, or one it is only type-asserted
// against) counts as used, as do String, Error and Unwrap.
package deadcode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// allowlist names the functions that stay with no caller outside tests,
// keyed as the failure prints them, each with the reason it stays.
var allowlist = map[string]string{
	"internal/mapred.Engine.JobCount": "core's teardown tests pin the engine's job table bounded across the package line; nothing else exposes its size",
	"internal/digest.Of":              "reference implementation the fast digest paths are held to in verify, dfs and mapred tests",
	"internal/digest.OfLines":         "reference implementation the fast digest paths are held to in verify, dfs and mapred tests",
}

// optionStructs are the option types whose exported fields the field rule
// holds to a writer, keyed as the failure prints them.
var optionStructs = []string{
	"internal/core.Config",
	"internal/dfs.Options",
	"internal/mapred.CompileOptions",
	"internal/mapred.CostModel",
	"internal/faultsim.Config",
	"internal/chaos.CampaignConfig",
	"internal/chaos.Profile",
	"internal/experiments.Scale",
	"internal/obs/introspect.Options",
	"internal/verify.Params",
}

// fieldAllowlist names the option fields that stay with no writer outside
// tests, keyed as the failure prints them, each with the reason it stays.
var fieldAllowlist = map[string]string{
	"internal/faultsim.Config.Nodes":      "the allocator tests run 3-30 node clusters; every program runs the paper's 250",
	"internal/faultsim.Config.Slots":      "the allocator tests run 1-3 slots a node; every program runs the paper's 3",
	"internal/faultsim.Config.Allocation": "EXPERIMENTS.md's overlap-scheduling ablation (BenchmarkAblationOverlapScheduling, a test file) compares the two placements",
}

// listed is the part of `go list -json` this check reads.
type listed struct {
	Dir        string
	ImportPath string
	GoFiles    []string
}

func goList(dir string) ([]listed, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// checker type-checks the listed packages on demand, as the importer of
// each other, into one shared Info; everything else comes from source.
type checker struct {
	fset   *token.FileSet
	std    types.Importer
	listed map[string]listed
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File
	info   *types.Info
}

func (c *checker) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	l, ok := c.listed[path]
	if !ok {
		return c.std.Import(path)
	}
	var files []*ast.File
	for _, name := range l.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(l.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: c}).Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path], c.files[path] = p, files
	return p, nil
}

// loaded is the module and bench/, type-checked once for every rule.
type loaded struct {
	root   string
	c      *checker
	module []listed // the module's packages; module[0] is the facade
	paths  []string // every checked package of the module and bench/, sorted
}

var (
	loadOnce sync.Once
	load     loaded
	loadErr  error
)

func loadModule(t *testing.T) loaded {
	t.Helper()
	loadOnce.Do(func() { load, loadErr = typeCheck() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return load
}

func typeCheck() (loaded, error) {
	root, err := filepath.Abs("../..")
	if err != nil {
		return loaded{}, err
	}
	// Read the standard library's pure-Go files, as a CGO_ENABLED=0
	// build would: the check needs its interfaces, not its cgo.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	c := &checker{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		listed: map[string]listed{},
		pkgs:   map[string]*types.Package{},
		files:  map[string][]*ast.File{},
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
	}
	module, err := goList(root)
	if err != nil {
		return loaded{}, err
	}
	benchPkgs, err := goList(filepath.Join(root, "bench"))
	if err != nil {
		return loaded{}, err
	}
	for _, l := range append(module, benchPkgs...) {
		c.listed[l.ImportPath] = l
	}
	paths := make([]string, 0, len(c.listed))
	for p := range c.listed {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := c.Import(p); err != nil {
			return loaded{}, fmt.Errorf("type-check %s: %v", p, err)
		}
	}
	return loaded{root: root, c: c, module: module, paths: paths}, nil
}

func TestEveryFunctionHasACaller(t *testing.T) {
	m := loadModule(t)
	root, c, module, paths, fset := m.root, m.c, m.module, m.paths, m.c.fset

	// A use inside a function's own body (recursion) does not count.
	used := map[*types.Func]bool{}
	for _, p := range paths {
		for _, f := range c.files[p] {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = c.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := c.info.Uses[id].(*types.Func); ok && fn != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}
	ifaces := interfacesByMethod(c)

	modPath := module[0].ImportPath // the root package: the facade
	var dead []string
	seen := map[string]bool{}
	for _, l := range module {
		if l.ImportPath == modPath {
			continue
		}
		rel := strings.TrimPrefix(l.ImportPath, modPath+"/")
		for _, f := range c.files[l.ImportPath] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := c.info.Defs[fd.Name].(*types.Func)
				key := rel + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					named := receiverType(recv.Type())
					key = rel + "." + named.Obj().Name() + "." + fn.Name()
					if satisfiesInterface(named, fn.Name(), ifaces) {
						continue
					}
				} else if fn.Name() == "init" || fn.Name() == "main" && fn.Pkg().Name() == "main" {
					continue
				}
				if used[fn] {
					continue
				}
				seen[key] = true
				if _, ok := allowlist[key]; ok {
					continue
				}
				pos := fset.Position(fd.Name.Pos())
				file, _ := filepath.Rel(root, pos.Filename)
				dead = append(dead, fmt.Sprintf("%s:%d %s", file, pos.Line, key))
			}
		}
	}
	for _, d := range dead {
		t.Errorf("no caller outside tests: %s", d)
	}
	for key := range allowlist {
		if !seen[key] {
			t.Errorf("allowlist entry %s has a caller or is gone: drop it", key)
		}
	}
}

func TestEveryOptionFieldIsSet(t *testing.T) {
	m := loadModule(t)
	c := m.c
	fieldOf := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := c.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				return v
			}
		}
		return nil
	}
	// A write is a selector on the left of an assignment, under ++/--,
	// or under &, or a composite-literal element. An assignment under an
	// if whose condition reads the same field fills in a default (if
	// c.N == 0 { c.N = 250 }) or clamps a value; it sets nothing.
	written := map[*types.Var]bool{}
	lhs := func(e ast.Expr) {
		if v := fieldOf(e); v != nil {
			written[v] = true
		}
	}
	defaults := map[ast.Expr]bool{}
	for _, p := range m.paths {
		for _, f := range c.files[p] {
			// Inspect visits an if before its body, so the defaults it
			// holds are marked before their assignments are seen.
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					read := map[*types.Var]bool{}
					ast.Inspect(n.Cond, func(n ast.Node) bool {
						if e, ok := n.(ast.Expr); ok {
							if v := fieldOf(e); v != nil {
								read[v] = true
							}
						}
						return true
					})
					ast.Inspect(n.Body, func(n ast.Node) bool {
						if as, ok := n.(*ast.AssignStmt); ok {
							for _, e := range as.Lhs {
								if v := fieldOf(e); v != nil && read[v] {
									defaults[e] = true
								}
							}
						}
						return true
					})
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						if !defaults[e] {
							lhs(e)
						}
					}
				case *ast.IncDecStmt:
					lhs(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						lhs(n.X)
					}
				case *ast.CompositeLit:
					t := c.info.Types[n].Type
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem() // an elided &T in []*T{{...}}
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							written[c.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)] = true
						} else {
							written[st.Field(i)] = true
						}
					}
				}
				return true
			})
		}
	}

	modPath := m.module[0].ImportPath
	seen := map[string]bool{}
	for _, name := range optionStructs {
		dot := strings.LastIndex(name, ".")
		pkg := c.pkgs[modPath+"/"+name[:dot]]
		if pkg == nil {
			t.Fatalf("option struct %s: no package %s", name, name[:dot])
		}
		tn, ok := pkg.Scope().Lookup(name[dot+1:]).(*types.TypeName)
		if !ok {
			t.Fatalf("option struct %s is gone: drop it from optionStructs", name)
		}
		st := tn.Type().Underlying().(*types.Struct)
		for v := range st.Fields() {
			key := name + "." + v.Name()
			if !v.Exported() || written[v] {
				continue
			}
			seen[key] = true
			if _, ok := fieldAllowlist[key]; ok {
				continue
			}
			pos := c.fset.Position(v.Pos())
			file, _ := filepath.Rel(m.root, pos.Filename)
			t.Errorf("no writer outside tests: %s:%d %s", file, pos.Line, key)
		}
	}
	for key := range fieldAllowlist {
		if !seen[key] {
			t.Errorf("field allowlist entry %s has a writer or is gone: drop it", key)
		}
	}
}

// interfacesByMethod indexes, by method name, every interface with
// methods that is declared in a package the module reaches, or written
// out in its code.
func interfacesByMethod(c *checker) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(iface *types.Interface) {
		if iface.NumMethods() == 0 || !iface.IsMethodSet() {
			return
		}
		for m := range iface.Methods() {
			byName[m.Name()] = append(byName[m.Name()], iface)
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				if iface, ok := named.Underlying().(*types.Interface); ok {
					add(iface)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range c.pkgs {
		walk(p)
	}
	for _, tv := range c.info.Types {
		if iface, ok := tv.Type.(*types.Interface); ok {
			add(iface)
		}
	}
	return byName
}

// satisfiesInterface reports whether the method name of named, or of a
// pointer to it, is what makes it implement one of the interfaces.
func satisfiesInterface(named *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	switch name {
	case "String", "Error", "Unwrap":
		return true
	}
	ptr := types.NewPointer(named)
	for _, iface := range ifaces[name] {
		if types.Implements(named, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

func receiverType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}
