package group

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The timing-class test pins which code may run variable-time
// arithmetic. VarTimeMultiExp's running time depends on its bases and
// exponents, so it may only see public values: verification equations,
// commitment combinations and FROST's group nonce. It reads the
// module's non-test sources with go/ast and checks two things:
//
//   - every function that mentions VarTimeMultiExp is on
//     varTimeCallers (a syntactic check over the whole module);
//   - no function on secretRoots reaches VarTimeMultiExp through the
//     call graph of internal/thresh and the module packages it imports,
//     type-checked with go/types. A call through an interface is an
//     edge to every method of that name whose receiver implements the
//     interface, and a function mentioned without being called (a
//     method value) counts as called. A function passed in as a
//     parameter is its caller's: CombineShares's pub callback is
//     checked where it is written, not inside CombineShares.

// varTimeCallers are the functions allowed to call VarTimeMultiExp, as
// package directory and function ("Recv.Method" for methods).
var varTimeCallers = map[string]bool{
	"internal/group.Group.VarTimeMultiExp":        true, // the front end
	"internal/thresh.Bind":                        true, // R = Π D_j·E_j^{ρ_j}
	"internal/thresh.Binding.VerifyShare":         true, // blame: D·E^ρ·V(i)^{λc}·g^{−z} = 1
	"internal/thresh.BatchVerifySignaturesPre":    true, // Verify is its one-signature case
	"internal/thresh.VerifyPartial":               true,
	"internal/thresh.BatchVerifyPartials":         true,
	"internal/thresh.VerifyDecryption":            true, // a1 = g^z·y^{−e}, a2 = h^z·D^{−e}
	"internal/thresh.CombinePublic":               true, // Π D_j^{λ_j} over published partials
	"internal/commit.BatchVerifier.checkIdentity": true,
	"internal/commit.CombineColumn0":              true,
	"internal/sig.Schnorr.Verify":                 true,
	"internal/sig.PrepareCertSig":                 true,
	"internal/sig.VerifyCertificate":              true,
}

// secretRoots handle nonces, shares or answers before they are
// published; none may reach a variable-time multi-exp.
var secretRoots = []string{
	"internal/thresh.Binding.Sign",
	"internal/thresh.NewNoncePair",
	"internal/thresh.ProveDecryption",
	"internal/thresh.OwnTerm",
}

func TestVarTimeMultiExpTimingClass(t *testing.T) {
	root := filepath.Join("..", "..")
	module := moduleName(t, root)
	fset := token.NewFileSet()
	pkgs := parseModule(t, fset, root)

	mentions := map[string]bool{}
	for dir, files := range pkgs {
		for _, f := range files {
			for _, fd := range funcDecls(f) {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "VarTimeMultiExp" {
						mentions[funcKey(dir, fd)] = true
					}
					return true
				})
			}
		}
	}
	if len(mentions) == 0 {
		t.Fatal("no VarTimeMultiExp call found: the source walk is broken")
	}
	for fn := range mentions {
		if !varTimeCallers[fn] {
			t.Errorf("%s calls VarTimeMultiExp but is not a listed public-input function", fn)
		}
	}
	for fn := range varTimeCallers {
		if !mentions[fn] {
			t.Errorf("%s is listed but no longer calls VarTimeMultiExp; update the list", fn)
		}
	}

	g := typedCallGraph(t, fset, module, pkgs, "internal/thresh")
	if g.pathToVarTime(g.byKey["internal/thresh.Bind"]) == nil {
		t.Fatal("Bind does not reach VarTimeMultiExp: the call graph is broken")
	}
	for _, root := range secretRoots {
		fn, ok := g.byKey[root]
		if !ok {
			t.Errorf("secret root %s not found in the sources", root)
			continue
		}
		if p := g.pathToVarTime(fn); p != nil {
			t.Errorf("%s reaches VarTimeMultiExp: %s", root, strings.Join(p, " → "))
		}
	}
}

// callGraph is the static call graph of some type-checked packages.
type callGraph struct {
	byKey map[string]*types.Func // "dir.Name" or "dir.Recv.Name"
	edges map[*types.Func][]*types.Func
}

// pathToVarTime returns a call path from root to any function named
// VarTimeMultiExp, or nil.
func (g *callGraph) pathToVarTime(root *types.Func) []string {
	prev := map[*types.Func]*types.Func{root: nil}
	queue := []*types.Func{root}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if fn.Name() == "VarTimeMultiExp" {
			var p []string
			for ; fn != nil; fn = prev[fn] {
				p = append([]string{fn.FullName()}, p...)
			}
			return p
		}
		for _, next := range g.edges[fn] {
			if _, seen := prev[next]; !seen {
				prev[next] = fn
				queue = append(queue, next)
			}
		}
	}
	return nil
}

// typedCallGraph type-checks the package in dir and the module
// packages it imports (the standard library from source) and returns
// their call graph.
func typedCallGraph(t *testing.T, fset *token.FileSet, module string, pkgs map[string][]*ast.File, dir string) *callGraph {
	t.Helper()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	infos := map[string]*types.Info{}
	var check func(dir string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if sub, ok := strings.CutPrefix(path, module+"/"); ok {
			return check(sub)
		}
		return std.Import(path)
	})
	check = func(dir string) (*types.Package, error) {
		if p, ok := checked[dir]; ok {
			return p, nil
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(module+"/"+dir, fset, pkgs[dir], info)
		if err != nil {
			return nil, err
		}
		checked[dir], infos[dir] = p, info
		return p, nil
	}
	if _, err := check(dir); err != nil {
		t.Fatal(err)
	}

	g := &callGraph{byKey: map[string]*types.Func{}, edges: map[*types.Func][]*types.Func{}}
	var concrete []*types.Func // every method of a non-interface type, for interface calls
	for d := range checked {
		for _, f := range pkgs[d] {
			for _, fd := range funcDecls(f) {
				fn := infos[d].Defs[fd.Name].(*types.Func)
				g.byKey[funcKey(d, fd)] = fn
				if fd.Recv != nil {
					concrete = append(concrete, fn)
				}
			}
		}
	}
	for d := range checked {
		for _, f := range pkgs[d] {
			for _, fd := range funcDecls(f) {
				from := infos[d].Defs[fd.Name].(*types.Func)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					to, ok := infos[d].Uses[id].(*types.Func)
					if !ok {
						return true
					}
					to = to.Origin()
					recv := to.Type().(*types.Signature).Recv()
					if recv == nil || !types.IsInterface(recv.Type()) {
						g.edges[from] = append(g.edges[from], to)
						return true
					}
					iface := recv.Type().Underlying().(*types.Interface)
					for _, m := range concrete {
						r := m.Type().(*types.Signature).Recv().Type()
						if m.Name() == to.Name() && (types.Implements(r, iface) || types.Implements(types.NewPointer(r), iface)) {
							g.edges[from] = append(g.edges[from], m)
						}
					}
					g.edges[from] = append(g.edges[from], to) // the interface method itself, by name
					return true
				})
			}
		}
	}
	return g
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// moduleName reads the module path from root's go.mod.
func moduleName(t *testing.T, root string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}

// parseModule parses the non-test Go files of the module rooted at
// root, by package directory; nested modules, hidden directories and
// testdata are skipped, and build constraints are honoured.
func parseModule(t *testing.T, fset *token.FileSet, root string) map[string][]*ast.File {
	t.Helper()
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil || strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkgs[filepath.ToSlash(rel)] = append(pkgs[filepath.ToSlash(rel)], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// funcDecls returns f's function declarations that have bodies.
func funcDecls(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	return out
}

// funcKey names a declaration as "dir.Name" or "dir.Recv.Name".
func funcKey(dir string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return dir + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := "?"
	if id, ok := typ.(*ast.Ident); ok {
		recv = id.Name
	}
	return dir + "." + recv + "." + fd.Name.Name
}
