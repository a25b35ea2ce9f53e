package stpbcast_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptWithoutUser lists the exported internal declarations that no
// non-test file names, each with the reason it stays. A key is
// "<package dir>.<Name>" or "<package dir>.<Type>.<Method>": a whole
// package kept for its tests is not an exception. An entry that has gained
// a user, or names nothing, fails the test too, so the table cannot rot.
var keptWithoutUser = map[string]string{
	"internal/engine.abortError.Unwrap":     "satisfies errors.Is/As, which reach the root cause of an aborted run through it",
	"internal/core.recorder.AdvanceCombine": "makes Compile's recorder a comm.Clock, the mark the benchmark's tracing decorator passes through unwrapped; goes with that decorator (ROADMAP 10(b))",
}

// TestInternalExportsHaveProductionUsers is the "kept alive only by
// tests" gate: every exported top-level func, type, var, const and method
// declared in a non-test file under internal/ must be named by some
// non-test file of the module (cmd/, examples/, benchmark/ and the facade
// count as users) other than by its own declaration. It parses only —
// no type information — so a use of a package-level name is that
// identifier in the declaring package or pkg.Name in an importer, and a
// use of a method is any selector x.Name anywhere (methods are also
// reached through interfaces declared elsewhere).
func TestInternalExportsHaveProductionUsers(t *testing.T) {
	type decl struct {
		key, dir, name string
		method         bool
		ident          *ast.Ident
	}
	type file struct {
		dir       string
		idents    map[string][]*ast.Ident
		selects   map[string]bool // names used as x.Name
		qualified map[string]bool // "<dir>.<Name>" for every pkg.Name naming an imported package
	}
	var decls []decl
	var files []file

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		fl := file{dir: dir, idents: map[string][]*ast.Ident{}, selects: map[string]bool{}, qualified: map[string]bool{}}
		imported := map[string]string{} // import name -> module-relative dir of an imported package
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); strings.HasPrefix(p, "repro/") {
				name := filepath.Base(p)
				if im.Name != nil {
					name = im.Name.Name
				}
				imported[name] = strings.TrimPrefix(p, "repro/")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fl.selects[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
					fl.qualified[imported[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				fl.idents[n.Name] = append(fl.idents[n.Name], n)
			}
			return true
		})
		files = append(files, fl)

		if !strings.HasPrefix(dir, "internal/") {
			return nil
		}
		add := func(id *ast.Ident, recv string) {
			if !id.IsExported() {
				return
			}
			key := dir + "." + id.Name
			if recv != "" {
				key = dir + "." + recv + "." + id.Name
			}
			decls = append(decls, decl{key: key, dir: dir, name: id.Name, method: recv != "", ident: id})
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					recv = receiverName(d.Recv.List[0].Type)
				}
				add(d.Name, recv)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, "")
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, "")
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := func(d decl) bool {
		for _, f := range files {
			if d.method {
				if f.selects[d.name] {
					return true
				}
				continue
			}
			if f.dir != d.dir {
				if f.qualified[d.key] {
					return true
				}
				continue
			}
			for _, id := range f.idents[d.name] {
				if id != d.ident {
					return true
				}
			}
		}
		return false
	}
	excused := map[string]bool{}
	var dead []string
	for _, d := range decls {
		if used(d) {
			continue
		}
		if keptWithoutUser[d.key] != "" {
			excused[d.key] = true
		} else {
			dead = append(dead, d.key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported but no non-test file names it: delete it, or move it beside the tests that use it", key)
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

// receiverName returns the type name of a method receiver, through a
// pointer and type parameters.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
