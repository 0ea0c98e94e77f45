package lcrs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist keeps exported names of internal/... that no non-test
// code uses, each with the reason it stays exported. A top-level
// identifier is keyed "pkg.Name"; a method "pkg.Type.Method".
var exportAllowlist = map[string]string{
	// Helpers that the tests of several packages share.
	"tensor.Equal":    "tolerance comparison of tensors in the tests of tensor, nn, binary, collab, dataset and modelio",
	"nn.Accuracy":     "top-1 accuracy of logits in the tests of nn, binary and bench",
	"collab.FrameKey": "cache key of raw payload bytes in the tests of collab and edge",
	"collab.Q8":       "the 8-bit codec value in the tests of collab and edge",

	// Methods the standard library calls through an interface.
	"edgesim.arrivalHeap.Less": "heap.Interface",
}

// exportDecl is one exported name declared in internal/....
type exportDecl struct {
	pkg, key string // import path and allowlist key
	name     string // identifier as written
	method   bool
	pos      token.Position
	from, to token.Pos // extent of the declaration; uses inside it do not count
}

// TestExportsAreUsed fails on every exported top-level identifier or method
// declared under internal/ that no non-test code uses, unless
// exportAllowlist names it. A top-level identifier counts as used where
// non-test code outside its own declaration names it: another package
// through a selector on its import, its own package as a bare identifier.
// A method counts as used where any non-test selector has its name. The
// test also logs, without failing, the exported identifiers that only
// their own package uses.
func TestExportsAreUsed(t *testing.T) {
	const module = "lcrs"
	fset := token.NewFileSet()
	type file struct {
		pkg string // import path of the file's directory
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{path.Join(module, filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations.
	var decls []exportDecl
	for _, fl := range files {
		if !strings.HasPrefix(fl.pkg, module+"/internal/") {
			continue
		}
		short := path.Base(fl.pkg)
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				e := exportDecl{pkg: fl.pkg, name: d.Name.Name, pos: fset.Position(d.Pos()), from: d.Pos(), to: d.End()}
				e.key = short + "." + d.Name.Name
				if d.Recv != nil {
					e.method = true
					e.key = short + "." + recvType(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				decls = append(decls, e)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls = append(decls, exportDecl{pkg: fl.pkg, key: short + "." + s.Name.Name, name: s.Name.Name,
								pos: fset.Position(s.Pos()), from: s.Pos(), to: s.End()})
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls = append(decls, exportDecl{pkg: fl.pkg, key: short + "." + n.Name, name: n.Name,
									pos: fset.Position(n.Pos()), from: s.Pos(), to: s.End()})
							}
						}
					}
				}
			}
		}
	}

	// Uses.
	foreign := map[string]bool{}      // "importpath.Name" named from another package
	local := map[string][]token.Pos{} // "importpath.Name" -> bare uses in its own package
	selectors := map[string]bool{}    // every selector name
	for _, fl := range files {
		imports := map[string]string{} // local name -> import path
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		skip := map[*ast.Ident]bool{} // idents that name a field, key or receiver
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				selectors[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						foreign[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							skip[id] = true
						}
					}
				}
			case *ast.Ident:
				if !skip[n] && n.IsExported() {
					local[fl.pkg+"."+n.Name] = append(local[fl.pkg+"."+n.Name], n.Pos())
				}
			}
			return true
		})
	}

	if len(decls) == 0 {
		t.Fatal("found no exported names under internal/; run from the module root")
	}
	var unused, ownOnly []string
	declared := map[string]bool{}
	methods := 0
	for _, e := range decls {
		declared[e.key] = true
		if e.method {
			methods++
			if !selectors[e.name] && exportAllowlist[e.key] == "" {
				unused = append(unused, e.key+" ("+e.pos.String()+")")
			}
			continue
		}
		if foreign[e.pkg+"."+e.name] {
			continue
		}
		usedHere := false
		for _, pos := range local[e.pkg+"."+e.name] {
			if pos < e.from || pos >= e.to {
				usedHere = true
				break
			}
		}
		switch {
		case usedHere:
			ownOnly = append(ownOnly, e.key)
		case exportAllowlist[e.key] == "":
			unused = append(unused, e.key+" ("+e.pos.String()+")")
		}
	}
	for key := range exportAllowlist {
		if !declared[key] {
			t.Errorf("exportAllowlist names %s, which internal/ no longer declares", key)
		}
	}
	sort.Strings(ownOnly)
	t.Logf("internal/ declares %d exported top-level identifiers and %d exported methods; %d identifiers are used only inside their own package:\n  %s",
		len(decls)-methods, methods, len(ownOnly), strings.Join(ownOnly, "\n  "))
	if len(unused) > 0 {
		sort.Strings(unused)
		t.Errorf("%d exported names have no non-test use; delete them, unexport them or allowlist them with a reason:\n  %s",
			len(unused), strings.Join(unused, "\n  "))
	}
}

// recvType is the name of a method receiver's base type.
func recvType(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
