package stpbcast_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// keptWithoutUser lists the exported declarations the gate below finds no
// non-test user for, each with the reason it stays. A key is
// "<package dir>.<Name>", "<package dir>.<Type>.<Method>" or
// "<package dir>.<Type>.<Field>", the directory left out for the root
// package: a whole package kept for its tests is not an exception. An
// entry that has gained a user, or names nothing, fails the test too, so
// the table cannot rot.
var keptWithoutUser = map[string]string{
	"internal/engine.abortError.Unwrap": "satisfies errors.Is/As, which reach the root cause of an aborted run through it",
	"Config.RowMajor":                   "the facade's switch for the paper's row-major ablation of Br_Lin; a library caller sets it, no binary does",
	"Config.MsgBytesFor":                "the facade's per-source message lengths, the paper's variable-length experiment; a library caller sets it, no binary does",
	"RunOptions.Context":                "a library caller's cancellation of one run; the binaries bound runs by deadlines instead",
}

// TestInternalExportsHaveProductionUsers is the "kept alive only by
// tests" gate. It type-checks every non-test file of the module (cmd/,
// examples/, benchmark/ and the facade count as users) and resolves each
// use to the object it names, so two methods that share a name are two
// objects, and a use through an instantiation of a generic type to the
// generic declaration. It fails on
//   - an exported top-level func, type, var or const declared under
//     internal/ that no non-test code refers to;
//   - an exported method of a type declared under internal/ that no
//     non-test code selects, unless its type satisfies an interface that
//     declares it (one of the module's, error or fmt.Stringer) or the
//     facade re-exports its type by an alias;
//   - an exported field of an *Options, *Spec or *Config struct anywhere
//     in the module that no non-test code writes (in a composite literal,
//     an assignment or by taking its address). A struct whose fields carry
//     json tags is a wire type, which the other side of the wire writes.
func TestInternalExportsHaveProductionUsers(t *testing.T) {
	dead, excused := unusedExports(t, loadModule(t, os.DirFS(".")))
	for _, msg := range dead {
		t.Error(msg)
	}
	for key := range keptWithoutUser {
		if !excused[key] {
			t.Errorf("keptWithoutUser[%q] excuses nothing: the declaration is gone or has a user now, drop the entry", key)
		}
	}
	if n := len(keptWithoutUser); n > 12 {
		t.Errorf("%d exceptions; the table is capped at 12", n)
	}
}

// TestGateSeesGenericMethods runs the gate on a module of two files
// whose internal package declares a generic stack: the methods its root
// package calls through an instantiation count as used, the one no
// non-test code calls still fails.
func TestGateSeesGenericMethods(t *testing.T) {
	dead, _ := unusedExports(t, loadModule(t, fstest.MapFS{
		"internal/list/list.go": {Data: []byte(`package list

type List[T any] struct{ items []T }

func (l *List[T]) Push(v T) { l.items = append(l.items, v) }

func (l *List[T]) Pop() T {
	v := l.items[len(l.items)-1]
	l.items = l.items[:len(l.items)-1]
	return v
}

func (l *List[T]) Len() int { return len(l.items) }
`)},
		"gate.go": {Data: []byte(`package gate

import "repro/internal/list"

var ints list.List[int]

func Round(v int) int {
	ints.Push(v)
	return ints.Pop()
}
`)},
	}))
	want := []string{"internal/list.List.Len is exported but no non-test code uses it: delete it, or move it beside the tests that use it"}
	if !reflect.DeepEqual(dead, want) {
		t.Errorf("the gate reports %q, want %q", dead, want)
	}
}

// unusedExports applies the gate to m: it returns what fails it, sorted,
// and the keys of keptWithoutUser that excused a declaration.
func unusedExports(t *testing.T, m *module) (dead []string, excused map[string]bool) {
	t.Helper()
	used := map[types.Object]bool{}
	for _, obj := range m.info.Uses {
		switch obj := obj.(type) {
		case *types.Func:
			used[obj.Origin()] = true
		case *types.Var:
			used[obj.Origin()] = true
		default:
			used[obj] = true
		}
	}
	written := map[types.Object]bool{}
	for _, f := range m.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st, ok := m.info.TypeOf(n).Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						written[m.info.Uses[kv.Key.(*ast.Ident)]] = true
					} else {
						written[st.Field(i)] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					written[m.field(lhs)] = true
				}
			case *ast.IncDecStmt:
				written[m.field(n.X)] = true
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					written[m.field(n.X)] = true
				}
			}
			return true
		})
	}

	// Interfaces a method may be reached through without a selector
	// naming it.
	fmtPkg, err := m.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	ifaces := []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
	}
	reexported := map[*types.TypeName]bool{}
	for _, p := range m.pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok && tn.IsAlias() && p.Path() == "repro" {
				reexported[n.Obj()] = true
			}
		}
	}
	reached := func(n *types.Named, fn *types.Func) bool {
		if reexported[n.Obj()] {
			return true
		}
		for _, it := range ifaces {
			if it.NumMethods() == 0 {
				continue
			}
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); obj == nil {
				continue
			}
			if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
				return true
			}
		}
		return false
	}

	type decl struct {
		key         string
		live, field bool
	}
	var decls []decl
	for _, p := range m.pkgs {
		dir := strings.TrimPrefix(strings.TrimPrefix(p.Path(), "repro"), "/")
		internal := strings.HasPrefix(dir, "internal/")
		prefix := dir + "."
		if dir == "" {
			prefix = ""
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if internal && obj.Exported() {
				decls = append(decls, decl{key: prefix + name, live: used[obj]})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			if internal {
				for i := 0; i < n.NumMethods(); i++ {
					if fn := n.Method(i); fn.Exported() {
						decls = append(decls, decl{key: prefix + name + "." + fn.Name(), live: used[fn] || reached(n, fn)})
					}
				}
			}
			st, ok := n.Underlying().(*types.Struct)
			if !ok || !isOptions(name) || isWire(st) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					decls = append(decls, decl{key: prefix + name + "." + f.Name(), live: written[f], field: true})
				}
			}
		}
	}

	excused = map[string]bool{}
	for _, d := range decls {
		switch {
		case d.live:
		case keptWithoutUser[d.key] != "":
			excused[d.key] = true
		case d.field:
			dead = append(dead, d.key+" is a knob no non-test code sets: delete it")
		default:
			dead = append(dead, d.key+" is exported but no non-test code uses it: delete it, or move it beside the tests that use it")
		}
	}
	sort.Strings(dead)
	return dead, excused
}

// isOptions reports whether a struct type's name marks it as a set of
// knobs, whose every field some caller should set.
func isOptions(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Spec") || strings.HasSuffix(name, "Config")
}

// isWire reports whether a struct is a JSON wire type: a field carries a
// json tag.
func isWire(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}

// module is the module's non-test code, type-checked.
type module struct {
	fset  *token.FileSet
	std   types.Importer
	src   map[string][]*ast.File // import path -> its non-test files
	pkgs  map[string]*types.Package
	files []*ast.File
	info  *types.Info
}

// field returns the struct field an lvalue writes, or nil.
func (m *module) field(e ast.Expr) types.Object {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if s := m.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj()
		}
	}
	return nil
}

// loadModule parses every non-test file of the module in root that the
// default build context selects and type-checks each of its packages;
// the standard library comes from its export data.
func loadModule(t *testing.T, root fs.FS) *module {
	t.Helper()
	m := &module{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		src:  map[string][]*ast.File{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	ctxt := build.Default
	ctxt.OpenFile = func(name string) (io.ReadCloser, error) { return root.Open(filepath.ToSlash(name)) }
	err := fs.WalkDir(root, ".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); file != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		dir, name := path.Split(file)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := ctxt.MatchFile(path.Clean(dir), name); !ok || err != nil {
			return err
		}
		src, err := fs.ReadFile(root, file)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(m.fset, file, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp := "repro"
		if d := path.Dir(file); d != "." {
			imp += "/" + d
		}
		m.src[imp] = append(m.src[imp], f)
		m.files = append(m.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range m.src {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// Import type-checks a module package from its files, once, and hands
// any other path to the standard library's importer.
func (m *module) Import(path string) (*types.Package, error) {
	files, ok := m.src[path]
	if !ok {
		return m.std.Import(path)
	}
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	m.pkgs[path] = p
	return p, err
}
