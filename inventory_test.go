package stpbcast_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDesignInventory checks DESIGN.md's system inventory against the
// tree. Every non-test package and cmd/ binary has a row and every row
// names one; examples/* is one row for all the examples, and benchmark/,
// which `make loc` leaves out, has none. "Lines" is the package's non-test
// line count as `make loc` counts it (newlines), and "Imported by" is the
// non-test import graph, written facade, internal packages, cmd binaries,
// examples, benchmark, each group sorted ("N examples" when every example
// imports the package). A wrong row fails with the corrected row.
//
// It also checks that every Test, Fuzz and Benchmark name the verify SKILL
// cites selects a function of some _test.go file under go test -run: the
// name of one, or a prefix of one.
func TestDesignInventory(t *testing.T) {
	lines := map[string]int{}                 // row key -> non-test lines
	importers := map[string]map[string]bool{} // row key -> importing directories
	var funcs []string                        // the funcs of every _test.go file
	examples := map[string]bool{}
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					funcs = append(funcs, fn.Name.Name)
				}
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "examples/") {
			examples[dir] = true
		}
		f, err := parser.ParseFile(fset, path, src, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if p != "repro" && !strings.HasPrefix(p, "repro/") {
				continue
			}
			key := inventoryKey(strings.TrimPrefix(strings.TrimPrefix(p, "repro"), "/"))
			if importers[key] == nil {
				importers[key] = map[string]bool{}
			}
			importers[key][dir] = true
		}
		if dir != "benchmark" {
			lines[inventoryKey(dir)] += bytes.Count(src, []byte("\n"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(string(design), "\n") {
		if strings.HasPrefix(line, "| Package | Lines |") {
			inTable = true
			continue
		}
		if !inTable || strings.HasPrefix(line, "|---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) < 4 {
			t.Errorf("DESIGN.md inventory row %q: want 4 cells", line)
			continue
		}
		name := strings.TrimSpace(cells[0])
		key := strings.Trim(strings.TrimSuffix(name, " (root)"), "`")
		if key == "stpbcast" {
			key = "."
		}
		rows[key] = true
		if _, ok := lines[key]; !ok {
			t.Errorf("DESIGN.md inventory row %s names no package: delete it", name)
			continue
		}
		contract := strings.TrimSpace(strings.Join(cells[2:len(cells)-1], "|"))
		got := fmt.Sprintf("| %s | %s | %s | %s |", name, strings.TrimSpace(cells[1]), contract, strings.TrimSpace(cells[len(cells)-1]))
		want := fmt.Sprintf("| %s | %d | %s | %s |", name, lines[key], contract, renderImporters(importers[key], len(examples)))
		if got != want {
			t.Errorf("DESIGN.md inventory row %s is stale; the tree says:\n%s", name, want)
		}
	}
	var missing []string
	for key := range lines {
		if !rows[key] {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		name := "`" + key + "`"
		if key == "." {
			name = "`stpbcast` (root)"
		}
		t.Errorf("DESIGN.md's inventory has no row for %s; add:\n| %s | %d | … | %s |", key, name, lines[key], renderImporters(importers[key], len(examples)))
	}

	skills, err := filepath.Glob(".*/skills/verify/SKILL.md")
	if err != nil || len(skills) != 1 {
		t.Fatalf("want one verify SKILL, found %v (%v)", skills, err)
	}
	skill, err := os.ReadFile(skills[0])
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(Test|Fuzz|Benchmark)[A-Z]\w*`).FindAllString(string(skill), -1)
	for _, name := range cited {
		found := false
		for _, fn := range funcs {
			if strings.HasPrefix(fn, name) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("the verify SKILL cites %s, which selects no func of any _test.go file", name)
		}
	}
}

// inventoryKey is the inventory row a module-relative directory belongs
// to: the directory itself, or examples/* for any example.
func inventoryKey(dir string) string {
	if strings.HasPrefix(dir, "examples/") {
		return "examples/*"
	}
	if dir == "" {
		return "."
	}
	return dir
}

// renderImporters writes an "Imported by" cell from the importing
// directories: facade, internal packages, cmd binaries, examples,
// benchmark, each group sorted, and "N examples" when all n examples
// import the package.
func renderImporters(dirs map[string]bool, n int) string {
	var groups [5][]string
	for dir := range dirs {
		switch {
		case dir == ".":
			groups[0] = append(groups[0], "facade")
		case strings.HasPrefix(dir, "internal/"):
			groups[1] = append(groups[1], filepath.Base(dir))
		case strings.HasPrefix(dir, "cmd/"):
			groups[2] = append(groups[2], filepath.Base(dir))
		case strings.HasPrefix(dir, "examples/"):
			groups[3] = append(groups[3], dir)
		default:
			groups[4] = append(groups[4], dir)
		}
	}
	if len(groups[3]) == n && n > 1 {
		groups[3] = []string{fmt.Sprintf("%d examples", n)}
	}
	var out []string
	for _, g := range groups {
		sort.Strings(g)
		out = append(out, g...)
	}
	if len(out) == 0 {
		return "—"
	}
	return strings.Join(out, ", ")
}
