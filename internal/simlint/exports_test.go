package simlint

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportExemptions are the only exported names TestNoTestOnlyExports lets
// stand although nothing but their own package's tests reaches them, each
// with the reason it stays.
var exportExemptions = map[string]string{
	"internal/analysis.AttackPeriod":            "Eq. (1) API; ROADMAP puts Eqs. (1)-(3) into the Table II and fleet reports",
	"internal/analysis.ExpectedDownCaptureRate": "Eq. (1)-(3) API; ROADMAP puts Eqs. (1)-(3) into the Table II and fleet reports",
	"internal/analysis.MistouchBudget":          "Eq. (2) API; ROADMAP uses it in the map of the §VII-A rule",
	"internal/analysis.PredictTableII":          "Eq. (3) API; ROADMAP adds its bound to the Table II report",
	"internal/analysis.ErrNoProfile":            "error of the Eq. (1)-(3) API",
}

// TestNoTestOnlyExports fails when an exported name of the module is
// reached by nothing but its own package's tests: such a name is API
// that no program runs. Delete it, or move it into the _test.go file
// that needs it.
func TestNoTestOnlyExports(t *testing.T) {
	found, stale, err := testOnlyExports("../..", exportExemptions)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s: %s is reached only by its own package's tests; delete it or move it into a _test.go file", f.pos, f.name)
	}
	for _, name := range stale {
		t.Errorf("exemption %s is stale: the name has a caller or is gone; drop it from exportExemptions", name)
	}
}

// TestTestOnlyExportsFixture pins the matcher on a small module. Flagged:
// an export that only its own package's tests reach, internal or
// external. Not flagged: one another package's test reaches, one its own
// package's non-test code reaches, one a nested module reaches, methods
// that satisfy sort.Interface, and an exempted name. An exemption for a
// name that is reached is reported stale.
func TestTestOnlyExportsFixture(t *testing.T) {
	found, stale, err := testOnlyExports("testdata/exports", map[string]string{
		"a.Exempted":      "fixture",
		"a.UsedInPackage": "fixture",
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.name)
	}
	if want := []string{"a.OnlyOwnTest", "a.Set.Unused"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("findings = %v, want %v", got, want)
	}
	if want := []string{"a.UsedInPackage"}; strings.Join(stale, " ") != strings.Join(want, " ") {
		t.Errorf("stale exemptions = %v, want %v", stale, want)
	}
}

// export is one exported name with no caller outside its own package's
// tests: name is "pkg.Name" or "pkg.Recv.Name", pkg relative to the
// module path, and pos is where it is declared.
type export struct {
	name string
	pos  token.Position
}

// The stdlib source importer type-checks every standard package the
// module imports from source; both tests share one so each standard
// package is checked once per test binary.
var (
	stdOnce sync.Once
	stdFset *token.FileSet
	stdImp  types.ImporterFrom
)

func stdImporter() (*token.FileSet, types.ImporterFrom) {
	stdOnce.Do(func() {
		stdFset = token.NewFileSet()
		stdImp = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
	})
	return stdFset, stdImp
}

// modulePkg is one type-checked non-test package of the module.
type modulePkg struct {
	path  string
	files []*ast.File
	tests []*ast.File // its _test.go files, internal and external
	pkg   *types.Package
	info  *types.Info
	err   error
}

// moduleImporter checks the module's own packages from source, so every
// module package exists once, and hands every other import to the
// shared stdlib importer.
type moduleImporter struct {
	fset *token.FileSet
	std  types.ImporterFrom
	mod  string
	pkgs map[string]*modulePkg
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := m.pkgs[path]; p != nil {
		if err := m.check(p); err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	if path == m.mod || strings.HasPrefix(path, m.mod+"/") {
		return nil, fmt.Errorf("module package %s not found", path)
	}
	return m.std.ImportFrom(path, dir, mode)
}

func (m *moduleImporter) check(p *modulePkg) error {
	if p.pkg != nil || p.err != nil {
		return p.err
	}
	p.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: m}
	p.pkg, p.err = conf.Check(p.path, m.fset, p.files, p.info)
	if p.err != nil {
		p.err = fmt.Errorf("type-check %s: %w", p.path, p.err)
	}
	return p.err
}

// testOnlyExports type-checks every non-test package of the Go module
// rooted at root and returns, sorted by name, each exported function,
// method, constant, variable and type that nothing but its own package's
// tests reaches, leaving out the exempt names, and then, sorted, the
// exempt names that are reached after all or gone. A name counts as used
// when a non-test file of the module references it, when a test file of
// another package or a non-test file of a nested module selects it
// (matched by name, since those files are not type-checked), or, for a
// method, when its receiver type implements an interface, in the module
// or in any package it imports, that declares the method.
func testOnlyExports(root string, exempt map[string]string) ([]export, []string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	fset, std := stdImporter()
	imp := &moduleImporter{fset: fset, std: std, mod: mod, pkgs: map[string]*modulePkg{}}
	var nested []*ast.File // non-test files of nested modules
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				files, err := parseTree(fset, path)
				nested = append(nested, files...)
				if err != nil {
					return err
				}
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(path, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		p := &modulePkg{path: mod}
		if rel != "." {
			p.path = mod + "/" + filepath.ToSlash(rel)
		}
		if p.files, err = parseFiles(fset, path, bp.GoFiles); err != nil {
			return err
		}
		if p.tests, err = parseFiles(fset, path, append(bp.TestGoFiles, bp.XTestGoFiles...)); err != nil {
			return err
		}
		imp.pkgs[p.path] = p
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	paths := make([]string, 0, len(imp.pkgs))
	for path := range imp.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := imp.check(imp.pkgs[path]); err != nil {
			return nil, nil, err
		}
	}

	rel := func(path string) string {
		return strings.TrimPrefix(path, mod+"/")
	}
	// key names an object the way findings and exemptions do, or returns
	// "" for one that is not an exported module name.
	key := func(obj types.Object) string {
		if obj == nil || obj.Pkg() == nil || !obj.Exported() || imp.pkgs[obj.Pkg().Path()] == nil {
			return ""
		}
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				named, ok := t.(*types.Named)
				if !ok {
					return "" // an interface's own method
				}
				return rel(obj.Pkg().Path()) + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			return ""
		}
		if obj.Parent() != obj.Pkg().Scope() && obj.Parent() != nil {
			return "" // not package-level
		}
		return rel(obj.Pkg().Path()) + "." + obj.Name()
	}

	// Candidates: every exported package-level name and every exported
	// method of a package-level named type.
	type candidate struct {
		obj  types.Object
		name string
	}
	var cands []candidate
	var named []*types.Named
	for _, path := range paths {
		scope := imp.pkgs[path].pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if k := key(obj); k != "" {
				cands = append(cands, candidate{obj, k})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			nt, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := nt.Underlying().(*types.Interface); isIface {
				continue
			}
			named = append(named, nt)
			for i := 0; i < nt.NumMethods(); i++ {
				if k := key(nt.Method(i)); k != "" {
					cands = append(cands, candidate{nt.Method(i), k})
				}
			}
		}
	}

	used := map[string]bool{}
	// Non-test files of the module: type-checked references, except a
	// function's references to itself and a method's to its receiver type.
	for _, path := range paths {
		p := imp.pkgs[path]
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var self types.Object
				nodes := []ast.Node{decl}
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
					nodes = []ast.Node{fd.Type}
					if fd.Body != nil {
						nodes = append(nodes, fd.Body)
					}
				}
				for _, n := range nodes {
					ast.Inspect(n, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						obj := p.info.Uses[id]
						if fn, ok := obj.(*types.Func); ok && fn.Origin() == self {
							return true
						}
						if k := key(obj); k != "" {
							used[k] = true
						}
						return true
					})
				}
			}
		}
	}

	// Test files of other packages and nested modules' files, matched by
	// name: pkg.Name through the file's imports, and .Name for a method
	// of any type outside the file's own package.
	methodUsers := map[string]map[string]bool{} // method name -> packages whose files select it
	match := func(f *ast.File, own string) {
		imports := map[string]string{}
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			p := imp.pkgs[path]
			if p == nil || path == own {
				continue
			}
			local := p.pkg.Name()
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !sel.Sel.IsExported() {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" {
				used[rel(imports[id.Name])+"."+sel.Sel.Name] = true
			}
			if methodUsers[sel.Sel.Name] == nil {
				methodUsers[sel.Sel.Name] = map[string]bool{}
			}
			methodUsers[sel.Sel.Name][own] = true
			return true
		})
	}
	for _, path := range paths {
		for _, f := range imp.pkgs[path].tests {
			match(f, path)
		}
	}
	for _, f := range nested {
		match(f, "")
	}

	// Interfaces a method may satisfy: the universe's error, every
	// interface type written in the module, and every package-level
	// interface of every package the module imports.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seenPkg := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, dep := range pkg.Imports() {
			walk(dep)
		}
	}
	for _, path := range paths {
		p := imp.pkgs[path]
		walk(p.pkg)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if iface, ok := p.info.TypeOf(it).(*types.Interface); ok && iface.NumMethods() > 0 {
						ifaces = append(ifaces, iface)
					}
				}
				return true
			})
		}
	}
	for _, nt := range named {
		if nt.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(nt)
		for _, it := range ifaces {
			if !types.Implements(nt, it) && !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, nt.Obj().Pkg(), it.Method(i).Name())
				if k := key(obj); k != "" {
					used[k] = true
				}
			}
		}
	}

	var out []export
	flagged := map[string]bool{}
	for _, c := range cands {
		if used[c.name] {
			continue
		}
		if fn, ok := c.obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			if otherUser(methodUsers[fn.Name()], c.obj.Pkg().Path()) {
				continue
			}
		}
		flagged[c.name] = true
		if _, ok := exempt[c.name]; !ok {
			out = append(out, export{c.name, fset.Position(c.obj.Pos())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	var stale []string
	for name := range exempt {
		if !flagged[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	return out, stale, nil
}

// otherUser reports whether users holds a package other than own.
func otherUser(users map[string]bool, own string) bool {
	for u := range users {
		if u != own {
			return true
		}
	}
	return false
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// parseTree parses every non-test .go file under dir, testdata excluded.
func parseTree(fset *token.FileSet, dir string) ([]*ast.File, error) {
	var files []*ast.File
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	return files, err
}
