//go:build !js

package webclient

import (
	"go/build"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// clientDeps is the repo-internal import closure the web client may link:
// the kernels, the model definitions and bundle format, the exit policy
// and the wire contract. Everything else (the edge server and what only it
// needs: slo, obs, the simulators, the datasets and the device cost
// models) is server or experiment code a browser must never fetch.
var clientDeps = map[string]bool{
	"lcrs/internal/tensor":     true,
	"lcrs/internal/nn":         true,
	"lcrs/internal/binary":     true,
	"lcrs/internal/quantize":   true,
	"lcrs/internal/collab":     true,
	"lcrs/internal/exitpolicy": true,
	"lcrs/internal/models":     true,
	"lcrs/internal/modelio":    true,
}

// TestClientImportClosure walks the non-test imports of this package with
// go/build and fails on any repo package outside clientDeps, so a change
// that makes the client link the edge server (or anything else new) is a
// deliberate edit of this list, not an accident.
func TestClientImportClosure(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	const module = "lcrs/"
	seen := map[string]bool{}
	var walk func(dir string)
	walk = func(dir string) {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, module) || seen[imp] {
				continue
			}
			seen[imp] = true
			walk(filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(imp, module))))
		}
	}
	walk(".")
	var extra []string
	for imp := range seen {
		if !clientDeps[imp] {
			extra = append(extra, imp)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Fatalf("the web client links %d repo packages; these are not client code: %s",
			len(seen)+1, strings.Join(extra, ", "))
	}
}
