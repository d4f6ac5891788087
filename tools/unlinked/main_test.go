package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// TestFuncNameMatchesLinkerNames pins the declaration side of the match:
// each FuncDecl must be named as `go tool nm` prints its text symbol once
// stripShapes has folded generic instantiations away.
func TestFuncNameMatchesLinkerNames(t *testing.T) {
	const src = `package p
func F() {}
func (t *T) Ptr() {}
func (t T) Val() {}
func G[X any]() {}
func (r *R[X]) One() {}
func (m M[K, V]) Two() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	// The symbols the linker emits for the same declarations.
	symbols := []string{
		"F",
		"(*T).Ptr",
		"T.Val",
		"G[go.shape.int]",
		"(*R[go.shape.struct { a int; b []string }]).One",
		"M[go.shape.string,go.shape.int].Two",
	}
	for i, d := range f.Decls {
		got, want := funcName(d.(*ast.FuncDecl)), stripShapes(symbols[i])
		if got != want {
			t.Errorf("decl %d: funcName %q, linker symbol reads %q", i, got, want)
		}
	}
}

func TestReadAllowlist(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) string {
		path := filepath.Join(dir, "allow.txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	allow, err := readAllowlist(write("# comment\n\nstats.F  oracle of TestX\n"))
	if err != nil || len(allow) != 1 || allow["stats.F"] == "" {
		t.Fatalf("allowlist = %v, %v", allow, err)
	}
	for _, bad := range []string{"stats.F\n", "stats.F why\nstats.F why again\n"} {
		if _, err := readAllowlist(write(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
