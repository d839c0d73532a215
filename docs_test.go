package calculon_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameDeclarations keeps the prose honest: every backticked Go
// identifier in docs/MODEL.md and README.md — `offer`, `perf.Runner.RunLeaf`,
// `Snapshot()` — must name something the module declares, so a rename or a
// deletion that leaves its description behind fails here. A span counts as
// a Go identifier when it is a name or a dotted chain of names, optionally
// called; file names and snake_case metric keys are not. Each name of the
// chain must be declared in the module (a package, command directory,
// declaration, field, parameter, JSON key or string constant such as a
// command or analyzer name), be predeclared, or hang off a standard-library
// package the module imports (`context.Context`), whose names pass.
func TestDocsNameDeclarations(t *testing.T) {
	known, stdlib := moduleNames(t)
	// Words the docs backtick that are not Go: a JSON literal and an
	// external tool.
	for _, w := range []string{"null", "staticcheck"} {
		known[w] = true
	}
	span := regexp.MustCompile("`([^`\n]+)`")
	ident := regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*(\.[A-Za-z][A-Za-z0-9]*)*(\(\))?$`)
	files := regexp.MustCompile(`\.(md|json|jsonl|go|yml|csv|txt|out)$`)
	checked := 0
	for _, doc := range []string{"docs/MODEL.md", "README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(string(data), -1) {
			name := m[1]
			if !ident.MatchString(name) || files.MatchString(name) {
				continue
			}
			checked++
			parts := strings.Split(strings.TrimSuffix(name, "()"), ".")
			if stdlib[parts[0]] {
				continue
			}
			for _, p := range parts {
				if !known[p] && types.Universe.Lookup(p) == nil {
					t.Errorf("%s: `%s` names %q, which the module does not declare", doc, name, p)
					break
				}
			}
		}
	}
	if checked < 100 {
		t.Errorf("only %d backticked identifiers found; the docs or the pattern moved", checked)
	}
}

// moduleNames parses every Go file of the module, tests included, and
// returns the names it declares and the last elements of the
// standard-library packages it imports.
func moduleNames(t *testing.T) (known, stdlib map[string]bool) {
	t.Helper()
	known, stdlib = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			known[d.Name()] = true
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		known[f.Name.Name] = true
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.Contains(strings.Split(p, "/")[0], ".") && !strings.HasPrefix(p, "calculon") {
				stdlib[p[strings.LastIndex(p, "/")+1:]] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				known[x.Name.Name] = true
			case *ast.TypeSpec:
				known[x.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range x.Names {
					known[id.Name] = true
				}
			case *ast.Field:
				for _, id := range x.Names {
					known[id.Name] = true
				}
				if x.Tag != nil {
					tag, _ := strconv.Unquote(x.Tag.Value)
					known[strings.Split(reflect.StructTag(tag).Get("json"), ",")[0]] = true
				}
			case *ast.BasicLit:
				if x.Kind == token.STRING {
					s, _ := strconv.Unquote(x.Value)
					known[s] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return known, stdlib
}
