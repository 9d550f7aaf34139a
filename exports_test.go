package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllow lists the exported identifiers of internal/ that no non-test
// code names beyond their own declaration, with the reason each one stays.
// Keys are as unusedExports reports them.
var exportAllow = map[string]string{
	// Test oracles read across packages.
	"engine.(*Core).KeyBytes":   "oracle: the key-digest and partition tests of explore and search read the hashed key bytes",
	"engine.(*Core).FaultsUsed": "oracle: the partition tests of explore and search fold the path's fault count into their reference key",
	"errs.IsFailure":            "oracle: the tests of checkpoint, jobspec, search and cmd/worstcase assert typed failures through it",
	"model.Annotator":           "oracle: TestAccumulatorMatchesBatch finds the models with per-event batch costs through it",
	// Methods of standard-library interfaces, called by the library.
	"errs.(*Error).Unwrap":      "errors.Is and errors.As call it",
	"search.(Mode).MarshalText": "encoding/json calls it to write a Result's mode by name",
}

// TestExportedIdentifiersHaveCallers fails when an exported identifier of
// internal/ is named by no non-test code of the module or of perfbench/
// (which imports the internals) beyond its own declaration, unless
// exportAllow gives it a reason to stay.
func TestExportedIdentifiersHaveCallers(t *testing.T) {
	decl, use := map[string]*ast.File{}, map[string]*ast.File{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		use[path] = f
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			decl[path] = f
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decl) == 0 {
		t.Fatal("found no non-test Go files under internal/")
	}
	for _, id := range unusedExports(decl, use, exportAllow) {
		t.Errorf("%s has no caller outside tests: use it, delete it, or move it into a _test.go file", id)
	}
	unused := unusedExports(decl, use, nil)
	for key := range exportAllow {
		if !slices.ContainsFunc(unused, func(id string) bool { return strings.HasPrefix(id, key+" (") }) {
			t.Errorf("allow-listed %s is gone or now has a caller: drop its entry", key)
		}
	}
}

// TestUnusedExportsReportsOnlyUncalled runs the scan over a small package
// with one used exported func, one unused one, one allow-listed method,
// methods called through a selector, an interface and a composite-literal
// key, and an uncalled method named like a type the package uses: exactly
// the unused func and the uncalled method are reported.
func TestUnusedExportsReportsOnlyUncalled(t *testing.T) {
	src := map[string]string{
		"a.go": `package demo

type code struct{}

func (code) Code() string { return "c" }

func Used() int { return 1 }

func Unused() int { return Used() }

type Class int

type Error struct{ class Class }

func (e *Error) Class() Class { return e.class }

func (e *Error) Selected() Class { return e.class }

func (e *Error) Declared() Class { return e.class }

func (e *Error) Keyed() Class { return e.class }
`,
		"b.go": `package demo

var _ = Used()

var _ = (&Error{}).Selected()

type declarer interface{ Declared() Class }

type table struct{ Keyed func() Class }

var _ = table{Keyed: nil}
`,
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for name, s := range src {
		f, err := parser.ParseFile(fset, name, s, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}
	allow := map[string]string{"demo.(code).Code": "reached through an interface"}
	if got, want := unusedExports(files, files, allow), []string{"demo.(*Error).Class (a.go)", "demo.Unused (a.go)"}; !slices.Equal(got, want) {
		t.Fatalf("reported %q, want %q", got, want)
	}
	if got, want := unusedExports(files, files, nil), []string{"demo.(*Error).Class (a.go)", "demo.(code).Code (a.go)", "demo.Unused (a.go)"}; !slices.Equal(got, want) {
		t.Fatalf("without the allow-list: reported %q, want %q", got, want)
	}
}

// unusedExports returns, sorted, the exported top-level funcs, methods,
// types, vars and consts of the files in decl that no file of use names,
// less the keys of allow. Both maps are keyed by path. A use of a func,
// type, var or const is any identifier of its name other than a top-level
// declaration's own. A method is reached only through a selector (x.M or
// T.M), so a use of one is a selector of its name, an interface method of
// its name (a call through the interface) or a composite-literal key of
// its name (a method value stored in a field so named): an identifier
// that merely shares the name, such as a type's, is no use. Either way
// the scan can only over-count uses: it never reports an identifier that
// is used. An identifier is reported as pkg.Name, or pkg.(Recv).Name for
// a method, followed by its file.
func unusedExports(decl, use map[string]*ast.File, allow map[string]string) []string {
	type export struct {
		key    string
		id     *ast.Ident
		path   string
		method bool
	}
	var exports []export
	declared := map[*ast.Ident]bool{}
	for path, f := range decl {
		pkg := f.Name.Name
		add := func(key string, id *ast.Ident, method bool) {
			declared[id] = true
			if id.IsExported() {
				exports = append(exports, export{pkg + "." + key, id, filepath.ToSlash(path), method})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := d.Name.Name
				if d.Recv != nil {
					key = "(" + recvName(d.Recv.List[0].Type) + ")." + key
				}
				add(key, d.Name, d.Recv != nil)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, s.Name, false)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id.Name, id, false)
						}
					}
				}
			}
		}
	}
	named, selected := map[string]bool{}, map[string]bool{}
	for _, f := range use {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declared[n] {
					named[n.Name] = true
				}
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						selected[id.Name] = true
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							selected[id.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	var out []string
	for _, e := range exports {
		used := named[e.id.Name]
		if e.method {
			used = selected[e.id.Name]
		}
		if _, ok := allow[e.key]; !ok && !used {
			out = append(out, e.key+" ("+e.path+")")
		}
	}
	slices.Sort(out)
	return out
}

// recvName renders a method receiver's type as T or *T, without type
// parameters.
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return "*" + recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
