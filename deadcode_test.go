// Dead-code guard: every exported package-level identifier under
// internal/, and every exported method of a type declared there, must
// be reached from non-test code somewhere in the repo (another internal
// package, a command, an example, or the nested perfbench module). Code that only tests reach either moves into its
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
	"slices"
	"sort"
	"strings"
	"testing"
)

// deadcodeAllow names the exported identifiers under internal/ that no
// non-test code reaches but that stay exported, keyed
// "internal/pkg.Name" or, for a method, "internal/pkg.Type.Method".
var deadcodeAllow = map[string]string{
	"internal/toca.ConflictGraph": "oracle for the adhoc and coloring differential tests",
	"internal/serve.TailWAL":      "the cluster tests tail a member's WAL through it",
	"internal/coloring.RLF":       "the BBB colorer ablation bench in internal/bbb runs it",
	"internal/experiments.IDs":    "root BenchmarkFigures ranges over every figure with it",

	"internal/chaos.Net.CutLink":          "the canary partition tests cut single links with it",
	"internal/chaos.Net.HealLink":         "the canary partition tests heal single links with it",
	"internal/chaos.Net.Dropped":          "the canary partition tests assert a cut link really dropped traffic",
	"internal/engine.Engine.Log":          "the engine replay test and the sim session tests read the event log through it",
	"internal/graph.Digraph.Edges":        "the adhoc and engine differential tests compare digraphs edge for edge",
	"internal/graph.Digraph.NumEdges":     "the adhoc, radio and root pipeline tests count edges with it",
	"internal/serve.Session.InspectState": "the cluster differential tests compare a session's live network, digraph, assignments and metrics bit for bit; a View carries no digraph",
	"internal/serve.Replica.InspectState": "the cluster and serve replica tests compare a replica's live network, digraph, assignments and metrics bit for bit; a View carries no digraph",
	"internal/xrand.RNG.Bool":             "the coloring, core, spatial and toca tests draw random booleans with it",
}

// TestNoTestOnlyExports type-checks every non-test .go file in the repo
// (perfbench included) and fails on an exported package-level
// identifier under internal/ that nothing uses outside its own
// declaration, and on an exported method of a type under internal/
// that is neither named by a selector nor reachable through an
// interface. A use inside a blank declaration (var _ I = T(nil)) does
// not count.
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

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
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
	// method's receiver type) does not keep it alive, and neither does
	// one inside a blank declaration: var _ I = T(nil) only asserts.
	type span struct{ from, to token.Pos }
	own := map[types.Object]span{}
	var blank []span
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
					}
					own[info.Defs[d.Name]] = span{d.Pos(), d.End()}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							own[info.Defs[s.Name]] = span{s.Pos(), s.End()}
						case *ast.ValueSpec:
							if slices.ContainsFunc(s.Names, func(n *ast.Ident) bool { return n.Name != "_" }) {
								for _, n := range s.Names {
									own[info.Defs[n]] = span{s.Pos(), s.End()}
								}
							} else {
								blank = append(blank, span{s.Pos(), s.End()})
							}
						}
					}
				}
			}
		}
	}
	inBlank := func(pos token.Pos) bool {
		return slices.ContainsFunc(blank, func(sp span) bool { return sp.from <= pos && pos < sp.to })
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if recv[id] || inBlank(id.Pos()) {
			continue
		}
		if sp, ok := own[obj]; ok && sp.from <= id.Pos() && id.Pos() < sp.to {
			continue
		}
		used[obj] = true
	}

	// The non-empty interfaces non-test code mentions: the type of an
	// expression, of a declared or used object, or any type those are
	// built from (a parameter of a called function, a map's values).
	// A method that satisfies one of them is reachable by dynamic call.
	ifaces := map[*types.Interface]bool{}
	seen := map[types.Type]bool{}
	var collect func(types.Type)
	collect = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch u := typ.(type) {
		case *types.Named:
			if it, ok := u.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		case *types.Interface:
			if u.NumMethods() > 0 {
				ifaces[u] = true
			}
		case *types.Pointer:
			collect(u.Elem())
		case *types.Slice:
			collect(u.Elem())
		case *types.Array:
			collect(u.Elem())
		case *types.Chan:
			collect(u.Elem())
		case *types.Map:
			collect(u.Key())
			collect(u.Elem())
		case *types.Tuple:
			for i := 0; i < u.Len(); i++ {
				collect(u.At(i).Type())
			}
		case *types.Signature:
			collect(u.Params())
			collect(u.Results())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				collect(u.Field(i).Type())
			}
		}
	}
	for e, tv := range info.Types {
		if !inBlank(e.Pos()) {
			collect(tv.Type)
		}
	}
	for _, m := range []map[*ast.Ident]types.Object{info.Defs, info.Uses} {
		for id, obj := range m {
			if obj != nil && !inBlank(id.Pos()) {
				collect(obj.Type())
			}
		}
	}
	viaInterface := func(named *types.Named, m *types.Func) bool {
		if m.Name() == "String" || m.Name() == "Error" {
			return true
		}
		ptr := types.NewPointer(named)
		for it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
				continue
			}
			if types.Implements(named, it) || types.Implements(ptr, it) {
				return true
			}
		}
		return false
	}

	allowHit := map[string]bool{}
	check := func(obj types.Object, key string) {
		if _, ok := deadcodeAllow[key]; ok {
			allowHit[key] = true
			return
		}
		t.Errorf("%s: exported %s is reached only by tests; move it into a _test.go file, delete it, or add it to deadcodeAllow with a reason",
			fset.Position(obj.Pos()), key)
	}
	for _, p := range paths {
		rel, ok := strings.CutPrefix(p, "repro/")
		if !ok || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := im.pkgs[p].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				check(obj, rel+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !viaInterface(named, m) {
					check(m, rel+"."+name+"."+m.Name())
				}
			}
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
