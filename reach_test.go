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

// reachAllowlist names the non-test declarations and fields that no
// binary reaches and that stay anyway, each with its reason. A key is
// "pkgpath.Name" for a top-level declaration, "pkgpath.Type.Method" for a
// method and "pkgpath.Type.field" for a field.
var reachAllowlist = map[string]string{
	"ldpmarginals/bench.maxBound":         "documents the widest end-to-end bound but nothing reads it; bench/ changes only with the benchmark",
	"ldpmarginals/bench.maxSetupBound":    "documents the widest setup_s bound but nothing reads it; bench/ changes only with the benchmark",
	"ldpmarginals/bench.e2eMetric.unit":   "only bench/bench_test.go reads it; bench/ changes only with the benchmark",
	"ldpmarginals/bench.e2eMetric.better": "only bench/bench_test.go reads it; bench/ changes only with the benchmark",
	"ldpmarginals/internal/fault.Disarm": "test seam: tests of internal/server and internal/store disarm the process-wide fault registry " +
		"after arming it; an exported name is the only way another package's tests reach it",
}

// TestEveryDeclarationReachedFromABinary fails when a non-test function,
// method, type, const or var of the module, or a named field of one of
// its struct types, is reached from no binary (a main package, bench
// included), no init function and no package-level initializer that
// makes a call. An exported name of the root package is no root of its
// own: the examples are what keep the public API alive. A method nothing
// names is reached only through what reached code does with its type
// (facts.method), and a field only where reached code reads it
// (facts.field). Code that only tests use belongs in a _test.go file or
// nowhere.
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
// code hides among declarations and fields reached only in the indirect
// ways the checker must follow: a method through an interface its type
// is converted to, a promoted method through its embedder's conversion,
// a method through a type assertion, a String method from fmt, an
// exported field through encoding/json, unexported fields through a map
// key, a var through a root initializer and generic code through an
// instantiation. Dead are an exported function of the root package no
// binary calls, a method only an unrelated interface's method name
// matches, a field that is written and never read, and a function
// nothing calls.
func TestReachabilityCheckerFixture(t *testing.T) {
	g, err := loadDeclGraph(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range g.unreached(nil) {
		names = append(names, d.name)
	}
	want := []string{"fixture.Unused", "fixture/lib.Circle.Area", "fixture/lib.Counter.last", "fixture/lib.Dead"}
	if !slices.Equal(names, want) {
		t.Fatalf("unreached = %v, want exactly %v", names, want)
	}
}

// unreachedDecl is one declaration or field that nothing reaches.
type unreachedDecl struct {
	name  string
	pos   token.Position
	lines int // doc comment included
}

// declNode is one top-level declaration (a func, method, type, or one
// name of a const or var spec) or one named field of a top-level struct
// type.
type declNode struct {
	obj   types.Object // nil for a blank var
	name  string
	pos   token.Position
	lines int
	root  bool
	owner int // a method's receiver type or a field's struct type; -1 for none
	field bool
	uses
	edges []int
}

// uses is what a declaration's code does that can reach other
// declarations.
type uses struct {
	refs    []types.Object     // what it names; a field only where it is read
	convs   []conversion       // values of concrete types it converts to interfaces
	asserts []*types.Interface // interfaces its type assertions and type switches name
	wholes  []types.Type       // struct values it compares or uses as map keys: every field read
}

// conversion is a value of a concrete type converted to an interface.
type conversion struct {
	from types.Type
	to   *types.Interface
}

// declGraph is the reference graph over a module's top-level
// declarations and struct fields.
type declGraph struct {
	dir   string
	nodes []*declNode
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
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Instances:  map[*ast.Ident]types.Instance{},
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
	owners := map[int]types.Object{} // node -> its receiver or struct type
	// add records one declaration spanning node (and doc) that does u.
	add := func(obj types.Object, name string, node ast.Node, doc *ast.CommentGroup, u uses, root bool) *declNode {
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
			owner: -1,
			uses:  u,
		}
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
		return n
	}
	for _, path := range paths {
		src := srcs[path]
		isMain := src.name == "main"
		for _, f := range src.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := src.info.Defs[d.Name].(*types.Func)
					name := path + "." + d.Name.Name
					root := d.Recv == nil && ((isMain && d.Name.Name == "main") || d.Name.Name == "init")
					var recv *types.TypeName
					if d.Recv != nil {
						recv = receiverType(obj)
						name = path + "." + recv.Name() + "." + d.Name.Name
					}
					add(obj, name, d, d.Doc, scan(src.info, d, obj.Type().(*types.Signature)), root)
					if recv != nil {
						owners[len(nodes)-1] = recv
					}
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
							name := path + "." + s.Name.Name
							add(obj, name, node, doc, scan(src.info, s, nil), false)
							fields, ok := s.Type.(*ast.StructType)
							if !ok {
								continue
							}
							st := obj.Type().Underlying().(*types.Struct)
							i := 0
							for _, fld := range fields.Fields.List {
								for range max(1, len(fld.Names)) { // an embedded field has no names
									v := st.Field(i)
									i++
									if v.Name() == "_" { // padding
										continue
									}
									fn := add(v, name+"."+v.Name(), fld, fld.Doc, uses{}, false)
									fn.pos = fset.Position(v.Pos())
									fn.field = true
									owners[len(nodes)-1] = obj
								}
							}
						case *ast.ValueSpec:
							calls := d.Tok == token.VAR && makesCall(src.info, s)
							u := scan(src.info, s, nil)
							for _, id := range s.Names {
								var obj types.Object
								if id.Name != "_" {
									obj = src.info.Defs[id]
								}
								add(obj, path+"."+id.Name, node, doc, u, calls)
							}
						}
					}
				}
			}
		}
	}
	for i, n := range nodes {
		if o, ok := owners[i]; ok {
			n.owner = index[o]
		}
		for _, ref := range n.refs {
			if j, ok := index[ref]; ok {
				n.edges = append(n.edges, j)
			}
		}
	}
	return &declGraph{dir: dir, nodes: nodes}, nil
}

// scan records what the code under root does: the objects it names
// (a field only where it is read, not where it is the target of a plain
// = or a key of a struct literal), the values of concrete types it
// converts to interfaces (implicitly, by assignment, argument, return,
// literal element, send, map key or comparison, or explicitly), the
// interfaces it asserts to, and the struct values it reads whole. sig is
// the signature of the function root declares, nil for a type, const or
// var.
func scan(info *types.Info, root ast.Node, sig *types.Signature) uses {
	var u uses
	written := map[*ast.Ident]bool{}
	seenWhole := map[types.Type]bool{}
	whole := func(t types.Type) {
		if !seenWhole[t] {
			seenWhole[t] = true
			u.wholes = append(u.wholes, t)
		}
	}
	convert := func(from, to types.Type) {
		if from == nil || to == nil || types.IsInterface(from) {
			return
		}
		if _, ok := to.(*types.TypeParam); ok {
			return
		}
		it, ok := to.Underlying().(*types.Interface)
		if !ok {
			return
		}
		if b, ok := from.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			return
		}
		u.convs = append(u.convs, conversion{from, it})
		switch f := from.Underlying().(type) {
		case *types.Pointer:
			// A pointer to an interface handed over (errors.As) is
			// asserted to that interface.
			if target, ok := f.Elem().Underlying().(*types.Interface); ok {
				u.asserts = append(u.asserts, target)
			}
		case *types.Struct, *types.Array:
			// The interface holds a copy, and comparing two of them
			// compares every field.
			whole(from)
		}
	}
	// flow converts values flowing into slots of the types to.
	flow := func(to []types.Type, vals []ast.Expr) {
		if len(vals) == 1 && len(to) > 1 {
			if tup, ok := info.TypeOf(vals[0]).(*types.Tuple); ok {
				for i := 0; i < tup.Len() && i < len(to); i++ {
					convert(tup.At(i).Type(), to[i])
				}
			}
			return
		}
		for i, v := range vals {
			if i < len(to) {
				convert(info.TypeOf(v), to[i])
			}
		}
	}
	assert := func(t types.Type) {
		if t == nil {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok {
			if _, isParam := t.(*types.TypeParam); !isParam {
				u.asserts = append(u.asserts, it)
			}
		}
	}
	sigs := []*types.Signature{sig}
	var stack []ast.Node
	ast.Inspect(root, func(x ast.Node) bool {
		if x == nil {
			if _, ok := stack[len(stack)-1].(*ast.FuncLit); ok {
				sigs = sigs[:len(sigs)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, x)
		if e, ok := x.(ast.Expr); ok {
			if m, ok := typeUnder(info.TypeOf(e)).(*types.Map); ok {
				whole(m.Key())
			}
		}
		switch x := x.(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				break
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() && written[x] {
				break
			}
			u.refs = append(u.refs, origin(obj))
			if inst, ok := info.Instances[x]; ok {
				// Instantiating a generic with a type whose constraint
				// declares methods calls them as an interface would.
				tparams := typeParams(obj)
				for i := 0; i < inst.TypeArgs.Len() && i < tparams.Len(); i++ {
					if it, ok := tparams.At(i).Constraint().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						u.convs = append(u.convs, conversion{inst.TypeArgs.At(i), it})
					}
				}
			}
		case *ast.FuncLit:
			sigs = append(sigs, info.TypeOf(x).(*types.Signature))
		case *ast.SelectorExpr:
			// A promoted field or method reads the embedded fields on
			// its path.
			if sel := info.Selections[x]; sel != nil {
				t := sel.Recv()
				path := sel.Index()
				for _, i := range path[:len(path)-1] {
					st, ok := typeUnder(deref(t)).(*types.Struct)
					if !ok {
						break
					}
					u.refs = append(u.refs, st.Field(i).Origin())
					t = st.Field(i).Type()
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.ASSIGN {
				break
			}
			to := make([]types.Type, len(x.Lhs))
			for i, l := range x.Lhs {
				if s, ok := ast.Unparen(l).(*ast.SelectorExpr); ok {
					written[s.Sel] = true
				}
				to[i] = info.TypeOf(l)
			}
			flow(to, x.Rhs)
		case *ast.ValueSpec:
			if x.Type != nil && len(x.Values) > 0 {
				to := make([]types.Type, len(x.Names))
				for i := range to {
					to[i] = info.TypeOf(x.Type)
				}
				flow(to, x.Values)
			}
		case *ast.ReturnStmt:
			if s := sigs[len(sigs)-1]; s != nil {
				to := make([]types.Type, s.Results().Len())
				for i := range to {
					to[i] = s.Results().At(i).Type()
				}
				flow(to, x.Results)
			}
		case *ast.CallExpr:
			tv := info.Types[x.Fun]
			if tv.IsType() {
				if len(x.Args) == 1 {
					convert(info.TypeOf(x.Args[0]), tv.Type)
				}
				break
			}
			s, ok := typeUnder(tv.Type).(*types.Signature)
			if !ok {
				break
			}
			n := len(x.Args)
			if n == 1 {
				if tup, ok := info.TypeOf(x.Args[0]).(*types.Tuple); ok {
					n = tup.Len()
				}
			}
			flow(paramTypes(s, n, x.Ellipsis.IsValid()), x.Args)
		case *ast.CompositeLit:
			switch t := typeUnder(deref(info.TypeOf(x))).(type) {
			case *types.Struct:
				for i, e := range x.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						key := kv.Key.(*ast.Ident)
						written[key] = true
						convert(info.TypeOf(kv.Value), info.Uses[key].Type())
					} else if i < t.NumFields() {
						convert(info.TypeOf(e), t.Field(i).Type())
					}
				}
			case *types.Slice, *types.Array, *types.Map:
				var key, elem types.Type
				switch t := t.(type) {
				case *types.Slice:
					elem = t.Elem()
				case *types.Array:
					elem = t.Elem()
				case *types.Map:
					key, elem = t.Key(), t.Elem()
				}
				for _, e := range x.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if key != nil {
							convert(info.TypeOf(kv.Key), key)
						}
						e = kv.Value
					}
					convert(info.TypeOf(e), elem)
				}
			}
		case *ast.SendStmt:
			if ch, ok := typeUnder(info.TypeOf(x.Chan)).(*types.Chan); ok {
				convert(info.TypeOf(x.Value), ch.Elem())
			}
		case *ast.IndexExpr:
			if m, ok := typeUnder(info.TypeOf(x.X)).(*types.Map); ok {
				convert(info.TypeOf(x.Index), m.Key())
			}
		case *ast.BinaryExpr:
			if x.Op != token.EQL && x.Op != token.NEQ {
				break
			}
			l, r := info.TypeOf(x.X), info.TypeOf(x.Y)
			convert(l, r)
			convert(r, l)
			if l != nil && !types.IsInterface(l) {
				whole(l)
			}
		case *ast.TypeAssertExpr:
			if x.Type != nil {
				assert(info.TypeOf(x.Type))
			}
		case *ast.TypeSwitchStmt:
			for _, c := range x.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					assert(info.TypeOf(e))
				}
			}
		}
		return true
	})
	return u
}

// paramTypes lists the parameter types n arguments of a call to sig
// flow into; spread marks a call whose last argument is a slice passed
// with "...".
func paramTypes(sig *types.Signature, n int, spread bool) []types.Type {
	ps := sig.Params()
	to := make([]types.Type, n)
	for i := range to {
		switch {
		case sig.Variadic() && i >= ps.Len()-1:
			t := ps.At(ps.Len() - 1).Type()
			if s, ok := typeUnder(t).(*types.Slice); ok && !spread {
				t = s.Elem()
			}
			to[i] = t
		case i < ps.Len():
			to[i] = ps.At(i).Type()
		}
	}
	return to
}

// typeParams returns the type parameters of a generic function or type.
func typeParams(obj types.Object) *types.TypeParamList {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin().Type().(*types.Signature).TypeParams()
	case *types.TypeName:
		if n, ok := types.Unalias(o.Type()).(*types.Named); ok {
			return n.Origin().TypeParams()
		}
	}
	return nil
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf returns the declared type of a T or *T, nil for other types.
func namedOf(t types.Type) *types.TypeName {
	if n, ok := types.Unalias(deref(t)).(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// dynamicMethods are the methods standard packages call after asserting
// a value handed to them as an interface to an interface of their own
// (fmt, errors, encoding, encoding/json, net/http, io, log/slog), by
// name and signature.
var dynamicMethods = map[string][]string{
	"Error":         {"()string"},
	"String":        {"()string"},
	"GoString":      {"()string"},
	"Format":        {"(fmt.State,rune)"},
	"Unwrap":        {"()error", "()[]error"},
	"Is":            {"(error)bool"},
	"As":            {"(any)bool"},
	"MarshalJSON":   {"()[]byte,error"},
	"UnmarshalJSON": {"([]byte)error"},
	"MarshalText":   {"()[]byte,error"},
	"UnmarshalText": {"([]byte)error"},
	"ServeHTTP":     {"(net/http.ResponseWriter,*net/http.Request)"},
	"WriteTo":       {"(io.Writer)int64,error"},
	"ReadFrom":      {"(io.Reader)int64,error"},
	"LogValue":      {"()log/slog.Value"},
	"Timeout":       {"()bool"},
}

// isDynamic reports whether fn is one of dynamicMethods.
func isDynamic(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	list := func(t *types.Tuple) string {
		var parts []string
		for i := 0; i < t.Len(); i++ {
			ty := t.At(i).Type()
			if it, ok := ty.Underlying().(*types.Interface); ok && it.Empty() {
				parts = append(parts, "any")
				continue
			}
			parts = append(parts, types.TypeString(ty, nil))
		}
		return strings.Join(parts, ",")
	}
	return slices.Contains(dynamicMethods[fn.Name()], "("+list(sig.Params())+")"+list(sig.Results()))
}

// facts is what the reached code does with types, gathered from the
// uses of every reached declaration.
type facts struct {
	to        map[*types.TypeName][]*types.Interface // interfaces a type, or one embedding it, is converted to
	outers    map[*types.TypeName][]*types.TypeName  // the converted types that are or embed a type
	dynamic   map[*types.TypeName]bool               // what reflection reaches from a value converted to any interface
	reflected map[*types.TypeName]bool               // what reflection reaches from a value converted to an empty interface
	whole     map[*types.TypeName]bool               // struct types every field of which is read
	asserts   []*types.Interface
	asserted  map[*types.Interface]bool
}

// convert records a conversion. A type embedded in the converted one
// is converted with it: its methods are promoted.
func (f *facts) convert(c conversion) {
	if outer := namedOf(c.from); outer != nil {
		var embeds func(tn *types.TypeName)
		embeds = func(tn *types.TypeName) {
			if slices.Contains(f.to[tn], c.to) && slices.Contains(f.outers[tn], outer) {
				return
			}
			if !slices.Contains(f.to[tn], c.to) {
				f.to[tn] = append(f.to[tn], c.to)
			}
			if !slices.Contains(f.outers[tn], outer) {
				f.outers[tn] = append(f.outers[tn], outer)
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if fl := st.Field(i); fl.Embedded() {
						if e := namedOf(fl.Type()); e != nil {
							embeds(e)
						}
					}
				}
			}
		}
		embeds(outer)
	}
	reflect(f.dynamic, c.from)
	if c.to.Empty() {
		reflect(f.reflected, c.from)
	}
}

func (f *facts) assert(it *types.Interface) {
	if !f.asserted[it] {
		f.asserted[it] = true
		f.asserts = append(f.asserts, it)
	}
}

// reflect marks in seen what fmt and encoding/json reach by reflection
// from a value of type t held in an interface: pointer, slice, array and
// map elements, and a struct's exported and embedded fields.
func reflect(seen map[*types.TypeName]bool, t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Pointer:
		reflect(seen, t.Elem())
	case *types.Slice:
		reflect(seen, t.Elem())
	case *types.Array:
		reflect(seen, t.Elem())
	case *types.Map:
		reflect(seen, t.Key())
		reflect(seen, t.Elem())
	case *types.Named:
		tn := t.Origin().Obj()
		if seen[tn] {
			return
		}
		seen[tn] = true
		reflect(seen, t.Underlying())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if fl := t.Field(i); fl.Exported() || fl.Embedded() {
				reflect(seen, fl.Type())
			}
		}
	}
}

// readWhole marks every field of a struct value read, with the fields
// of the struct and array values it holds.
func (f *facts) readWhole(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		tn := t.Origin().Obj()
		if f.whole[tn] {
			return
		}
		f.whole[tn] = true
		f.readWhole(t.Underlying())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			f.readWhole(t.Field(i).Type())
		}
	case *types.Array:
		f.readWhole(t.Elem())
	}
}

// method reports whether reached code can call the method fn of tn
// without naming it: through an interface tn (or a type embedding it)
// is converted to, through an interface a type assertion names and the
// converted type implements, or from a standard package that asserts for
// it.
func (f *facts) method(tn *types.TypeName, fn *types.Func) bool {
	for _, it := range f.to[tn] {
		if declares(it, fn.Name()) {
			return true
		}
	}
	for _, o := range f.outers[tn] {
		for _, it := range f.asserts {
			if declares(it, fn.Name()) && (types.Implements(o.Type(), it) || types.Implements(types.NewPointer(o.Type()), it)) {
				return true
			}
		}
	}
	return f.dynamic[tn] && isDynamic(fn)
}

// field reports whether reached code reads the field v of tn without
// selecting it: by reading its struct whole, by reflection over an
// exported field, or through the methods an embedded field promotes.
func (f *facts) field(tn *types.TypeName, v *types.Var) bool {
	return f.whole[tn] || (f.reflected[tn] && (v.Exported() || v.Embedded())) || (v.Embedded() && len(f.outers[tn]) > 0)
}

func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// unreached returns the declarations and fields that neither the
// module's roots nor the extra roots (keyed by name) reach, sorted by
// position. A field of an unreached type is not listed: the type is.
func (g *declGraph) unreached(extra map[string]string) []unreachedDecl {
	nodes := g.nodes
	reached := make([]bool, len(nodes))
	f := &facts{
		to:        map[*types.TypeName][]*types.Interface{},
		outers:    map[*types.TypeName][]*types.TypeName{},
		dynamic:   map[*types.TypeName]bool{},
		reflected: map[*types.TypeName]bool{},
		whole:     map[*types.TypeName]bool{},
		asserted:  map[*types.Interface]bool{},
	}
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
		for len(queue) > 0 {
			n := nodes[queue[0]]
			queue = queue[1:]
			for _, e := range n.edges {
				mark(e)
			}
			for _, c := range n.convs {
				f.convert(c)
			}
			for _, t := range n.wholes {
				f.readWhole(t)
			}
			for _, it := range n.asserts {
				f.assert(it)
			}
		}
		// What reached code does with a reached type can reach its
		// methods and fields; each newly reached one may do more.
		for i, n := range nodes {
			if reached[i] || n.owner < 0 || !reached[n.owner] {
				continue
			}
			tn := nodes[n.owner].obj.(*types.TypeName)
			if n.field && f.field(tn, n.obj.(*types.Var)) || !n.field && f.method(tn, n.obj.(*types.Func)) {
				mark(i)
			}
		}
	}

	var dead []unreachedDecl
	for i, n := range nodes {
		if reached[i] || n.obj == nil || n.field && !reached[n.owner] {
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
