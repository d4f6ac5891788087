// Command unlinked is the CI guard against test-only code in internal/.
// It fails (exit 1, one line per finding) when a non-test function or
// method declared under internal/ is linked into no binary: not into any
// `main` package of the module and not into the bench/ runner. Such a
// function is reachable only from tests, so it is either dead or a test
// helper living in library code.
//
// The method: every main package and bench/ is built with inlining off
// (-gcflags=all=-l), so a function that is called survives as a text
// symbol; `go tool nm` lists those symbols, and each FuncDecl found by
// go/ast is looked up under its linker name — repro/internal/pkg.F,
// pkg.(*T).M for a pointer receiver, pkg.T.M for a value receiver, with
// the [shape] instantiations of generics folded onto the generic name.
//
// A function that must stay although no binary links it — a reference
// implementation a test compares against, or an accessor a cross-package
// test reads — is listed in allowlist.txt with a one-line reason. An
// allowlist entry that is linked again, or no longer declared, is
// reported too, so the list cannot outlive its reasons.
//
// Run it from the repository root:
//
//	go run ./tools/unlinked
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const (
	module    = "repro"
	allowFile = "tools/unlinked/allowlist.txt"
)

// decl is one function or method declared in a non-test file of internal/.
type decl struct {
	name  string // pkg.F, pkg.(*T).M or pkg.T.M, pkg relative to internal/
	pos   string // file:line
	lines int    // from the func keyword to the closing brace
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unlinked:", err)
		os.Exit(1)
	}
}

func run() error {
	decls, err := parseDecls("internal")
	if err != nil {
		return err
	}
	allow, err := readAllowlist(allowFile)
	if err != nil {
		return err
	}
	linked, err := linkedSymbols()
	if err != nil {
		return err
	}

	var problems []string
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d.name] = true
		if linked[d.name] {
			if _, ok := allow[d.name]; ok {
				problems = append(problems, fmt.Sprintf("%s: %s is linked; remove it from %s", d.pos, d.name, allowFile))
			}
			continue
		}
		if _, ok := allow[d.name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s (%d lines) is linked by no binary; delete it, or list it in %s with the reason it stays", d.pos, d.name, d.lines, allowFile))
		}
	}
	for name := range allow {
		if !declared[name] {
			problems = append(problems, fmt.Sprintf("%s: %s is declared nowhere in internal/; remove the entry", allowFile, name))
		}
	}
	sort.Strings(problems)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "unlinked:", p)
		}
		return fmt.Errorf("%d problem(s)", len(problems))
	}
	fmt.Printf("unlinked: all %d functions in internal/ are linked or allowlisted (%d allowlisted)\n", len(decls), len(allow))
	return nil
}

// parseDecls returns every FuncDecl in the non-test Go files under root,
// except init functions, which the linker names by file order.
func parseDecls(root string) ([]decl, error) {
	fset := token.NewFileSet()
	var decls []decl
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
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
		pkg := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), root+string(filepath.Separator)))
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			start, end := fset.Position(fn.Type.Func), fset.Position(fn.End())
			decls = append(decls, decl{
				name:  pkg + "." + funcName(fn),
				pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(path), start.Line),
				lines: end.Line - start.Line + 1,
			})
		}
		return nil
	})
	return decls, err
}

// funcName is fn's linker name without the package: F, (*T).M or T.M.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	ptr := false
	if s, ok := t.(*ast.StarExpr); ok {
		ptr, t = true, s.X
	}
	switch g := t.(type) { // a generic receiver T[P] or T[P, Q]
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	recv := t.(*ast.Ident).Name
	if ptr {
		return "(*" + recv + ")." + fn.Name.Name
	}
	return recv + "." + fn.Name.Name
}

// readAllowlist reads "name reason" lines; blank lines and #-comments are
// skipped, and an entry without a reason is an error.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, i+1, name)
		}
		allow[name] = reason
	}
	return allow, nil
}

// linkedSymbols builds every main package of the module and the bench/
// runner with inlining off and returns the internal/ text symbols their
// binaries hold, named as parseDecls names them.
func linkedSymbols() (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "unlinked")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	out, err := goCmd(".", nil, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	if err != nil {
		return nil, err
	}
	mains := strings.Fields(string(out))
	if _, err := goCmd(".", nil, append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, mains...)...); err != nil {
		return nil, err
	}
	if _, err := goCmd("bench", []string{"GOFLAGS=-mod=mod"}, "build", "-gcflags=all=-l", "-o", filepath.Join(dir, "bench.bin"), "."); err != nil {
		return nil, err
	}

	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	prefix := module + "/internal/"
	for _, b := range bins {
		out, err := goCmd(".", nil, "tool", "nm", filepath.Join(dir, b.Name()))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			if name, ok := strings.CutPrefix(strings.Join(f[2:], " "), prefix); ok {
				linked[stripShapes(name)] = true
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return linked, nil
}

// stripShapes drops every bracketed instantiation, so that
// stats.F[go.shape.float64] and topo.(*Ring[go.shape.int]).Push read as
// stats.F and topo.(*Ring).Push.
func stripShapes(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// goCmd runs the go command in dir with extra environment and returns its
// standard output; a failure carries its standard error.
func goCmd(dir string, env []string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
