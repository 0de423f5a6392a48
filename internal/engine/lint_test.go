package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSourceLints holds the engine's non-test sources to five structural
// promises, its tests and the root package's to one, and the module's
// non-test sources to two more, each stated where it is kept: checked on
// the parsed files — imports, call sites, declarations and identifiers,
// never comments or strings.
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
	module := moduleSources(t, fset)
	t.Run("no facade mirror", func(t *testing.T) {
		// The broker is the v1 contract's one in-process implementation:
		// scalia.Client embeds it as its API, so a Client method named
		// like a contract method would be a second one to keep in step.
		contract := map[string]bool{}
		for _, f := range module.root {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "API" {
					if it, ok := ts.Type.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							for _, name := range m.Names {
								contract[name.Name] = true
							}
						}
					}
				}
				return true
			})
		}
		if len(contract) == 0 {
			t.Fatal("no scalia.API interface in the root package")
		}
		for _, f := range module.root {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && receiver(fn) == "Client" && contract[fn.Name.Name] {
					t.Errorf("%s: scalia.Client declares %s, a method of scalia.API; the broker implements it", fset.Position(fn.Pos()), fn.Name.Name)
				}
			}
		}
	})
	t.Run("production uses its exports", func(t *testing.T) {
		// An exported identifier under internal/ is named by some non-test
		// file other than its declaration: what only tests call belongs in
		// a test file. The check is by name, so it may miss a test-only
		// method with a common name, but it never flags a used one.
		excused := map[string]bool{}
		for _, d := range module.exports {
			switch {
			case module.named[d.name] > 0, standardMethods[d.name] && d.recv != "":
			case exportedForOthers[d.key] != "":
				excused[d.key] = true
			default:
				t.Errorf("%s: %s is exported but no non-test file names it", d.at, d.key)
			}
		}
		for key := range exportedForOthers {
			if !excused[key] {
				t.Errorf("exportedForOthers lists %s, which is no unused export: strike its line", key)
			}
		}
	})
}

// standardMethods are the methods a standard interface calls, which no
// source file of the module need name.
var standardMethods = map[string]bool{
	"Error": true, "String": true, "Format": true, "GoString": true, "Unwrap": true, "Is": true, "As": true,
	"Read": true, "Write": true, "Close": true, "ReadFrom": true, "WriteTo": true, "Seek": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
}

// exportedForOthers is the set of exports under internal/ that no
// non-test file of the module names, each kept for a reason outside it.
var exportedForOthers = map[string]string{
	// bench/ is a module of its own and drives these directly; ROADMAP
	// item 15(b) deletes them once 15(a) moves bench/ onto the contract.
	"cloud.BlobStore.PutBatch":    "bench/: BatchWriter behind its latency wrapper",
	"cloud.BlobStore.ObjectCount": "bench/: the store probe",
	"engine.Broker.Caches":        "bench/: cache statistics of a run",
	"engine.Broker.Metadata":      "bench/: Flush before the timed window",
	"erasure.Coder.EncodePooled":  "bench/: the encode probe",
	// Scaffolding the open items need in production code.
	"erasure.Coder.Verify":       "the parity oracle of the engine tests' VerifyObject; ROADMAP item 4(a)'s deep audit",
	"metadata.Cluster.Partition": "partition-and-heal, ROADMAP items 4(b) and 22",
	"metadata.Cluster.Heal":      "partition-and-heal, ROADMAP items 4(b) and 22",
}

// receiver returns the name of fn's receiver type, "" for a function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch generic := typ.(type) {
	case *ast.IndexExpr:
		typ = generic.X
	case *ast.IndexListExpr:
		typ = generic.X
	}
	return typ.(*ast.Ident).Name
}

// export is one exported declaration under internal/: name, its receiver
// type ("" for none), its key pkg.[Recv.]Name and where it is.
type export struct{ name, recv, key, at string }

// sources is what moduleSources reads of the module's non-test files.
type sources struct {
	root    []*ast.File    // the root package's
	exports []export       // the exported declarations under internal/, test-support packages left out
	named   map[string]int // identifier name -> uses: every identifier but a declared name
}

// moduleSources parses the module's non-test Go files, bench/ (a module
// of its own) left out.
func moduleSources(t *testing.T, fset *token.FileSet) sources {
	t.Helper()
	const root = "../.."
	src := sources{named: map[string]int{}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
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
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		if dir == "." {
			src.root = append(src.root, f)
		}
		checked := strings.HasPrefix(dir, "internal/") && dir != "internal/cloud/cloudtest" && dir != "internal/apitest"
		declared := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident, recv string) {
			declared[id] = true
			if checked && id.IsExported() {
				key := f.Name.Name + "." + id.Name
				if recv != "" {
					key = f.Name.Name + "." + recv + "." + id.Name
				}
				src.exports = append(src.exports, export{id.Name, recv, key, fset.Position(id.Pos()).String()})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declare(d.Name, receiver(d))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name, "")
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id, "")
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool { // fields, methods of interfaces, parameters
			if field, ok := n.(*ast.Field); ok {
				for _, id := range field.Names {
					declared[id] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				src.named[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}
