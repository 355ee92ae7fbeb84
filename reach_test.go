package ldpmarginals_test

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
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the non-test declarations that no binary reaches
// and that stay anyway, each with its reason. A key is "pkgpath.Name" for
// a top-level declaration and "pkgpath.Type.Method" for a method.
var reachAllowlist = map[string]string{
	"ldpmarginals/bench.maxBound":      "documents the widest end-to-end bound but nothing reads it; bench/ changes only with the benchmark",
	"ldpmarginals/bench.maxSetupBound": "documents the widest setup_s bound but nothing reads it; bench/ changes only with the benchmark",
	"ldpmarginals/internal/fault.Disarm": "test seam: tests of internal/server and internal/store disarm the process-wide fault registry " +
		"after arming it; an exported name is the only way another package's tests reach it",
}

// TestEveryDeclarationReachedFromABinary fails when a non-test function,
// method, type, const or var of the module is reached from no binary (a
// main package, bench included), no init function and no package-level
// initializer that makes a call. An exported name of the root package is
// no root of its own: the examples are what keep the public API alive.
// Code that only tests call belongs in a _test.go file or nowhere.
func TestEveryDeclarationReachedFromABinary(t *testing.T) {
	g, err := loadDeclGraph(".")
	if err != nil {
		t.Fatal(err)
	}
	unlisted := map[string]bool{}
	for _, d := range g.unreached(nil) {
		unlisted[d.name] = true
	}
	for name := range reachAllowlist {
		if !unlisted[name] {
			t.Errorf("allowlist entry %s is reached from a binary, or gone: remove the entry", name)
		}
	}
	// What an allowlisted declaration uses stays with it.
	for _, d := range g.unreached(reachAllowlist) {
		t.Errorf("%s:%d %s (%d lines) is reached only from tests, or not at all", d.pos.Filename, d.pos.Line, d.name, d.lines)
	}
}

// TestReachabilityCheckerFixture runs the checker on a module whose dead
// functions hide among declarations reached only in the indirect ways
// the checker must follow: a method through an interface, a var through
// a root initializer and a generic function through an instantiation.
// An exported function of the module's root package is dead too when no
// binary calls it.
func TestReachabilityCheckerFixture(t *testing.T) {
	g, err := loadDeclGraph(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range g.unreached(nil) {
		names = append(names, d.name)
	}
	if want := []string{"fixture.Unused", "fixture/lib.Dead"}; !slices.Equal(names, want) {
		t.Fatalf("unreached = %v, want exactly %v", names, want)
	}
}

// unreachedDecl is one top-level declaration that nothing reaches.
type unreachedDecl struct {
	name  string
	pos   token.Position
	lines int // doc comment included
}

// declNode is one top-level declaration: a func, method, type, or one
// name of a const or var spec.
type declNode struct {
	obj   types.Object // nil for a blank var
	name  string
	pos   token.Position
	lines int
	root  bool
	refs  []types.Object
	edges []int
}

// declGraph is the reference graph over a module's top-level
// declarations.
type declGraph struct {
	dir          string
	nodes        []*declNode
	methodsOf    map[*types.TypeName][]int
	ifaceMethods map[string]bool // every interface method name in sight
}

// loadDeclGraph type-checks the non-test files of the module rooted at
// dir and builds the reference graph over their declarations.
func loadDeclGraph(dir string) (*declGraph, error) {
	modPath, err := readModulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	type pkgSrc struct {
		files []*ast.File
		name  string
		pkg   *types.Package
		info  *types.Info
	}
	srcs := map[string]*pkgSrc{}
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if path != dir && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		src := &pkgSrc{name: bp.Name}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			src.files = append(src.files, f)
		}
		srcs[importPath] = src
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := importer.ForCompiler(fset, "source", nil)
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == modPath || strings.HasPrefix(path, modPath+"/") {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		src, ok := srcs[path]
		if !ok {
			return nil, fmt.Errorf("package %s not found in the module", path)
		}
		if src.pkg != nil {
			return src.pkg, nil
		}
		src.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, src.files, src.info)
		if err != nil {
			return nil, err
		}
		src.pkg = pkg
		return pkg, nil
	}
	paths := make([]string, 0, len(srcs))
	for path := range srcs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := check(path); err != nil {
			return nil, err
		}
	}

	var nodes []*declNode
	index := map[types.Object]int{}
	methodsOf := map[*types.TypeName][]int{}
	ifaceMethods := map[string]bool{}
	// add records one declaration spanning node (and doc); its references
	// are the identifiers used inside from.
	add := func(src *pkgSrc, obj types.Object, name string, node ast.Node, doc *ast.CommentGroup, from ast.Node, root bool) {
		start := node.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		n := &declNode{
			obj:   obj,
			name:  name,
			pos:   fset.Position(node.Pos()),
			lines: fset.Position(node.End()).Line - fset.Position(start).Line + 1,
			root:  root,
		}
		ast.Inspect(from, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				if used := src.info.Uses[id]; used != nil {
					n.refs = append(n.refs, origin(used))
				}
			}
			return true
		})
		if obj != nil {
			// A const repeated by iota names no type, yet uses its spec's.
			switch obj.(type) {
			case *types.Const, *types.Var:
				if named, ok := obj.Type().(*types.Named); ok {
					n.refs = append(n.refs, named.Origin().Obj())
				}
			}
			index[obj] = len(nodes)
		}
		nodes = append(nodes, n)
	}
	for _, path := range paths {
		src := srcs[path]
		isMain := src.name == "main"
		for _, f := range src.files {
			ast.Inspect(f, func(x ast.Node) bool {
				if it, ok := x.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							ifaceMethods[id.Name] = true
						}
					}
				}
				return true
			})
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := src.info.Defs[d.Name].(*types.Func)
					name := path + "." + d.Name.Name
					root := d.Recv == nil && ((isMain && d.Name.Name == "main") || d.Name.Name == "init")
					if d.Recv != nil {
						recv := receiverType(obj)
						name = path + "." + recv.Name() + "." + d.Name.Name
						methodsOf[recv] = append(methodsOf[recv], len(nodes))
					}
					add(src, obj, name, d, d.Doc, d, root)
				case *ast.GenDecl:
					grouped := d.Lparen.IsValid()
					for _, spec := range d.Specs {
						var node ast.Node = spec
						doc := d.Doc
						if grouped {
							doc = specDoc(spec)
						} else {
							node = d
						}
						switch s := spec.(type) {
						case *ast.TypeSpec:
							obj := src.info.Defs[s.Name]
							add(src, obj, path+"."+s.Name.Name, node, doc, s, false)
						case *ast.ValueSpec:
							calls := d.Tok == token.VAR && makesCall(src.info, s)
							for _, id := range s.Names {
								var obj types.Object
								if id.Name != "_" {
									obj = src.info.Defs[id]
								}
								add(src, obj, path+"."+id.Name, node, doc, s, calls)
							}
						}
					}
				}
			}
		}
	}
	for _, n := range nodes {
		for _, ref := range n.refs {
			if i, ok := index[ref]; ok {
				n.edges = append(n.edges, i)
			}
		}
	}

	// Every interface the program can see, standard library included,
	// may call a method of a reached type by name.
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						ifaceMethods[it.Method(i).Name()] = true
					}
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, path := range paths {
		visit(srcs[path].pkg)
	}

	return &declGraph{dir: dir, nodes: nodes, methodsOf: methodsOf, ifaceMethods: ifaceMethods}, nil
}

// unreached returns the declarations that neither the module's roots nor
// the extra roots (keyed by declaration name) reach, sorted by position.
func (g *declGraph) unreached(extra map[string]string) []unreachedDecl {
	nodes := g.nodes
	reached := make([]bool, len(nodes))
	var queue []int
	mark := func(i int) {
		if !reached[i] {
			reached[i] = true
			queue = append(queue, i)
		}
	}
	for i, n := range nodes {
		if _, ok := extra[n.name]; n.root || ok {
			mark(i)
		}
	}
	for len(queue) > 0 {
		n := nodes[queue[0]]
		queue = queue[1:]
		for _, e := range n.edges {
			mark(e)
		}
		if tn, ok := n.obj.(*types.TypeName); ok {
			for _, m := range g.methodsOf[tn] {
				if g.ifaceMethods[nodes[m].obj.Name()] {
					mark(m)
				}
			}
		}
	}

	var dead []unreachedDecl
	for i, n := range nodes {
		if reached[i] || n.obj == nil {
			continue
		}
		pos := n.pos
		if rel, err := filepath.Rel(g.dir, pos.Filename); err == nil {
			pos.Filename = rel
		}
		dead = append(dead, unreachedDecl{name: n.name, pos: pos, lines: n.lines})
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return dead
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func readModulePath(gomod string) (string, error) {
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

// origin maps a use of an instantiated generic function, method or field
// to its generic declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func receiverType(fn *types.Func) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

func specDoc(spec ast.Spec) *ast.CommentGroup {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return s.Doc
	case *ast.ValueSpec:
		return s.Doc
	}
	return nil
}

// makesCall reports whether a var spec's initializer calls a function,
// and so runs code when the program starts. Conversions and builtins do
// not count.
func makesCall(info *types.Info, s *ast.ValueSpec) bool {
	calls := false
	for _, v := range s.Values {
		ast.Inspect(v, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if c, ok := x.(*ast.CallExpr); ok {
				if tv := info.Types[c.Fun]; !tv.IsType() && !tv.IsBuiltin() {
					calls = true
				}
			}
			return !calls
		})
	}
	return calls
}
