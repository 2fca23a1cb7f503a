// Dead-code guard: every exported package-level identifier under
// internal/ must be reached from non-test code somewhere in the repo
// (another internal package, a command, an example, or the nested
// perfbench module). Code that only tests reach either moves into its
// package's _test.go files or goes away; the few identifiers that
// tests in other packages need stay on deadcodeAllow, each with its
// reason.
package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadcodeAllow names the exported identifiers under internal/ that no
// non-test code reaches but that stay exported, keyed "internal/pkg.Name".
var deadcodeAllow = map[string]string{
	"internal/toca.ConflictGraph": "oracle for the adhoc and coloring differential tests",
	"internal/serve.TailWAL":      "the cluster tests tail a member's WAL through it",
	"internal/coloring.RLF":       "the BBB colorer ablation bench in internal/bbb runs it",
	"internal/experiments.IDs":    "root BenchmarkFigures ranges over every figure with it",
}

// TestNoTestOnlyExports type-checks every non-test .go file in the repo
// (perfbench included) and fails on an exported package-level
// identifier under internal/ that nothing uses outside its own
// declaration. Methods are not checked: interfaces reach them.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
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
		pkg := "repro"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	im := &repoImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		files: files,
		pkgs:  map[string]*types.Package{},
		info:  info,
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := im.Import(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}

	// A use inside the identifier's own declaration (recursion, a
	// method's receiver type) does not keep it alive.
	type span struct{ from, to token.Pos }
	own := map[types.Object]span{}
	recv := map[*ast.Ident]bool{}
	for _, fs := range files {
		for _, f := range fs {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recv[id] = true
							}
							return true
						})
						continue
					}
					own[info.Defs[d.Name]] = span{d.Pos(), d.End()}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							own[info.Defs[s.Name]] = span{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								own[info.Defs[n]] = span{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if recv[id] {
			continue
		}
		if sp, ok := own[obj]; ok && sp.from <= id.Pos() && id.Pos() < sp.to {
			continue
		}
		used[obj] = true
	}

	allowHit := map[string]bool{}
	for _, p := range paths {
		rel, ok := strings.CutPrefix(p, "repro/")
		if !ok || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := im.pkgs[p].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() || used[obj] {
				continue
			}
			key := rel + "." + name
			if _, ok := deadcodeAllow[key]; ok {
				allowHit[key] = true
				continue
			}
			t.Errorf("%s: exported %s is reached only by tests; move it into a _test.go file, delete it, or add it to deadcodeAllow with a reason",
				fset.Position(obj.Pos()), key)
		}
	}
	for key, why := range deadcodeAllow {
		if why == "" {
			t.Errorf("deadcodeAllow[%q] has no reason", key)
		}
		if !allowHit[key] {
			t.Errorf("deadcodeAllow[%q] is stale: non-test code uses it, or it no longer exists", key)
		}
	}
}

// repoImporter type-checks the repo's own packages from the parsed
// files, so every use resolves to the one object its declaration
// defines, and leaves the standard library to the source importer.
type repoImporter struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (im *repoImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	fs, ok := im.files[path]
	if !ok {
		return im.std.Import(path)
	}
	conf := types.Config{Importer: im}
	p, err := conf.Check(path, im.fset, fs, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = p
	return p, nil
}
