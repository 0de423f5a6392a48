package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSourceLints holds the engine's non-test sources to five structural
// promises, and its tests and the root package's to one, each stated where
// it is kept: checked on the parsed files — imports, call sites and
// declarations, never comments or strings.
func TestSourceLints(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := make(map[string]*ast.File)
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}
	gateway := func(name string) bool { return strings.HasPrefix(name, "httpapi") }

	// imports reports the files outside allowed that import path.
	imports := func(t *testing.T, path string, allowed func(name string) bool) {
		t.Helper()
		for name, f := range files {
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == path && !allowed(name) {
					t.Errorf("%s imports %s", fset.Position(imp.Pos()), path)
				}
			}
		}
	}
	// calls returns the call sites in the files where match holds of the
	// called function's name and, for a method or package function, of
	// the expression it is selected from (nil otherwise).
	calls := func(where func(name string) bool, match func(fn string, recv ast.Expr) bool) (at []string) {
		for name, f := range files {
			if !where(name) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var fn string
				var recv ast.Expr
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					fn = fun.Name
				case *ast.SelectorExpr:
					fn, recv = fun.Sel.Name, fun.X
				}
				if match(fn, recv) {
					at = append(at, fset.Position(call.Pos()).String())
				}
				return true
			})
		}
		return at
	}

	t.Run("no body MD5", func(t *testing.T) {
		// The ETag is a token minted per write, and bodies are checked by
		// CRC-32C, so only names are MD5-hashed in the engine: the row key
		// and the storage key, both in meta.go.
		imports(t, "crypto/md5", func(name string) bool { return name == "meta.go" })
	})
	t.Run("one row writer", func(t *testing.T) {
		// An object's row is the only record of it: Head, GET and the
		// listing all read it, and Engine.publish is the one place it is
		// written. A second row writer, or an index row beside the object
		// row, fails here.
		at := calls(func(string) bool { return true }, func(fn string, recv ast.Expr) bool {
			sel, ok := recv.(*ast.SelectorExpr)
			return fn == "Put" && ok && sel.Sel.Name == "meta"
		})
		if len(at) != 1 {
			t.Errorf(".meta.Put is called %d times outside tests, want 1 (Engine.publish): %v", len(at), at)
		}
	})
	t.Run("one open per GET", func(t *testing.T) {
		// A GET or HEAD opens its object once (openObject: pin, one row
		// read) and decides every answer on that version; a second row
		// read (Head) or open (GetReader, GetRangeReader) in the gateway
		// could answer from another version.
		for _, at := range calls(gateway, func(fn string, recv ast.Expr) bool {
			return fn == "Head" && recv != nil || fn == "GetReader" || fn == "GetRangeReader"
		}) {
			t.Errorf("%s: the gateway reads a row or opens an object outside its one openObject", at)
		}
	})
	t.Run("one provider fake", func(t *testing.T) {
		// Provider faults are armed on cloudtest.Faulty, which the Store
		// conformance table holds to the contract; a test's own wrapper
		// around the simulated store would be held to nothing.
		for _, dir := range []string{".", "../.."} {
			tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range tests {
				f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if st, ok := n.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							if star, ok := field.Type.(*ast.StarExpr); ok && len(field.Names) == 0 && types.ExprString(star.X) == "cloud.BlobStore" {
								t.Errorf("%s: a struct embeds *cloud.BlobStore; arm the fault on cloudtest.Faulty", fset.Position(field.Pos()))
							}
						}
					}
					return true
				})
			}
		}
	})
	t.Run("one provider record", func(t *testing.T) {
		// What the broker learns about a provider from its own traffic is
		// its record (providers.go): observeProviderOp is the one path that
		// writes it, and the health endpoint reads the error series through
		// it. Reaching the op series or the smoothed latency from anywhere
		// else is a second observation path.
		owners := map[string]bool{"metrics.go": true, "providers.go": true, "httpapi_obs.go": true}
		for name, f := range files {
			if owners[name] {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "providerDur", "providerErrs", "srtt":
						t.Errorf("%s: %s outside the provider record", fset.Position(sel.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
	})
	t.Run("no JSON rows", func(t *testing.T) {
		// A row holds its ObjectMeta as the value (metadata.Version.Value);
		// nothing encodes or parses it. JSON belongs to the HTTP API alone.
		imports(t, "encoding/json", gateway)
	})
}
