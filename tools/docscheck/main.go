// Command docscheck is the CI documentation gate and the scenario-catalog
// generator. In check mode (the default) it walks the repository and fails
// (exit 1, one line per finding) when
//
//   - a Go package has no package doc comment on any of its files
//     (test-only packages are exempt),
//   - a markdown file at the repo root or in .github/ contains an
//     intra-repository link to a file that does not exist,
//   - a tracked markdown file cites a Test, Benchmark, Fuzz or Example
//     function that no _test.go file defines (CHANGES.md, ROADMAP.md and
//     any document with a `- [ ]` task list are history and plans, and
//     may name what is gone or not yet written), or
//   - the generated scenario-catalog table in EXPERIMENTS.md is stale:
//     the block between its BEGIN/END markers must be byte-identical to
//     what the topo scenario registry renders right now.
//
// It does not pin prose: section headings in the markdown files are free
// to move; only links out of them are checked.
//
// With -write-catalog it regenerates that table in place instead — the
// only way the table is ever edited. Register a scenario (with its
// Headline) in internal/topo/scenarios, run the generator, commit both.
//
// Run it from the repository root:
//
//	go run ./tools/docscheck                 # gate
//	go run ./tools/docscheck -write-catalog  # refresh EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/topo"

	// Populate the scenario registry the catalog is generated from.
	_ "repro/internal/topo/scenarios"
)

func main() {
	writeCatalog := flag.Bool("write-catalog", false,
		"regenerate the scenario catalog table in EXPERIMENTS.md from the topo registry and exit")
	flag.Parse()

	if *writeCatalog {
		if err := rewriteCatalog(experimentsFile); err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(1)
		}
		fmt.Printf("docscheck: wrote the %d-scenario catalog table to %s\n",
			len(topo.Scenarios()), experimentsFile)
		return
	}

	var problems []string
	problems = append(problems, checkPackageDocs(".")...)
	problems = append(problems, checkMarkdownLinks(".")...)
	problems = append(problems, checkCatalog(experimentsFile)...)
	problems = append(problems, checkTestNames(".")...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: package docs, markdown links, test names and scenario catalog OK")
}

// The generated scenario catalog lives in EXPERIMENTS.md between these
// markers; everything inside is owned by -write-catalog.
const (
	experimentsFile = "EXPERIMENTS.md"
	catalogBegin    = "<!-- BEGIN SCENARIO CATALOG (generated by `docscheck -write-catalog`; do not edit by hand) -->"
	catalogEnd      = "<!-- END SCENARIO CATALOG -->"
)

// renderCatalog renders the catalog table from the scenario registry:
// one row per registered scenario, sorted by name like topo.Scenarios.
func renderCatalog() string {
	var b strings.Builder
	b.WriteString("| Scenario | Topology | Runner | CLI | Headline burstiness |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, sc := range topo.Scenarios() {
		headline := sc.Headline
		if headline == "" {
			headline = "—"
		}
		fmt.Fprintf(&b, "| `%s` | %s | `core.SweepScenario(%q, …)` | `paperexp -scenario %s` | %s |\n",
			sc.Name, sc.Topology, sc.Name, sc.Name, headline)
	}
	return b.String()
}

// splitCatalog locates the generated block, returning the text before the
// BEGIN marker, the current block body, and the text after the END marker.
func splitCatalog(doc string) (before, body, after string, err error) {
	i := strings.Index(doc, catalogBegin)
	j := strings.Index(doc, catalogEnd)
	switch {
	case i < 0:
		return "", "", "", fmt.Errorf("missing %q marker", catalogBegin)
	case j < 0:
		return "", "", "", fmt.Errorf("missing %q marker", catalogEnd)
	case j < i:
		return "", "", "", fmt.Errorf("catalog END marker precedes BEGIN")
	}
	start := i + len(catalogBegin) + 1 // past the marker line's newline
	if start > j {
		start = j
	}
	return doc[:start], doc[start:j], doc[j:], nil
}

// checkCatalog fails when the committed catalog table differs from what
// the registry renders — the docs gate that keeps EXPERIMENTS.md in sync
// with registered scenarios.
func checkCatalog(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	_, body, _, err := splitCatalog(string(data))
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	if body != renderCatalog() {
		return []string{fmt.Sprintf(
			"%s: scenario catalog table is stale; run `go run ./tools/docscheck -write-catalog`", path)}
	}
	return nil
}

// rewriteCatalog regenerates the block in place, leaving the markers and
// the surrounding prose untouched.
func rewriteCatalog(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	before, _, after, err := splitCatalog(string(data))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return os.WriteFile(path, []byte(before+renderCatalog()+after), 0o644)
}

// checkPackageDocs requires every non-test package to carry a package doc
// comment on at least one file.
func checkPackageDocs(root string) []string {
	// dir -> has any non-test Go file / has a package doc comment.
	type pkgState struct{ hasGo, hasDoc bool }
	pkgs := map[string]*pkgState{}

	fset := token.NewFileSet()
	walkErr := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "vendor" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		st := pkgs[dir]
		if st == nil {
			st = &pkgState{}
			pkgs[dir] = st
		}
		st.hasGo = true
		// PackageClauseOnly keeps the parse cheap; ParseComments retains
		// the doc comment attached to the package clause.
		f, perr := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if perr == nil && f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			st.hasDoc = true
		}
		return nil
	})

	var dirs []string
	for dir, st := range pkgs {
		if st.hasGo && !st.hasDoc {
			dirs = append(dirs, dir)
		}
	}
	sort.Strings(dirs)
	out := make([]string, len(dirs))
	for i, dir := range dirs {
		out[i] = fmt.Sprintf("package %s has no package doc comment", dir)
	}
	if walkErr != nil {
		// A partial scan must not pass as green.
		out = append(out, fmt.Sprintf("package scan aborted: %v", walkErr))
	}
	return out
}

// mdLink matches [text](target) links; target group 1 stops at '#' or ')'.
var mdLink = regexp.MustCompile(`\]\(([^)#\s]+)[^)]*\)`)

// checkMarkdownLinks verifies that relative links in the root and
// .github/ markdown files point at files that exist.
func checkMarkdownLinks(root string) []string {
	var files []string
	for _, glob := range []string{"*.md", ".github/*.md"} {
		m, _ := filepath.Glob(filepath.Join(root, glob))
		files = append(files, m...)
	}
	sort.Strings(files)

	var out []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				out = append(out, fmt.Sprintf("%s: broken link %q", file, target))
			}
		}
	}
	return out
}

// testName matches a Go test, benchmark, fuzz target or example name as a
// whole word. `Test*` and other wildcards do not match.
var testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*`)

// historyDocs may cite test names that no longer (or do not yet) exist.
var historyDocs = map[string]bool{"CHANGES.md": true, "ROADMAP.md": true}

// taskList matches a markdown task-list item; a document carrying one is
// a plan and, like historyDocs, may cite names not yet written.
var taskList = regexp.MustCompile(`(?m)^\s*[-*] \[[ xX]\] `)

// checkTestNames fails on every test name a tracked markdown file cites
// that no _test.go file under root defines, so deleting a test or a
// benchmark cannot leave a dangling reference in the docs.
func checkTestNames(root string) []string {
	cmd := exec.Command("git", "ls-files", "-z", "--", "*.md")
	cmd.Dir = root
	list, err := cmd.Output()
	if err != nil {
		return []string{fmt.Sprintf("listing tracked markdown files: %v", err)}
	}
	docs := map[string]string{}
	for _, file := range strings.FieldsFunc(string(list), func(r rune) bool { return r == 0 }) {
		data, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			return []string{fmt.Sprintf("%s: %v", file, err)}
		}
		docs[file] = string(data)
	}
	defined, err := definedTestNames(root)
	if err != nil {
		return []string{fmt.Sprintf("test scan aborted: %v", err)}
	}
	return danglingTestNames(docs, defined)
}

// definedTestNames collects the top-level Test, Benchmark, Fuzz and
// Example functions of every _test.go file under root.
func definedTestNames(root string) (map[string]bool, error) {
	defined := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "vendor" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testName.MatchString(fn.Name.Name) {
				defined[fn.Name.Name] = true
			}
		}
		return nil
	})
	return defined, err
}

// danglingTestNames reports, per file and line, each cited test name
// missing from defined. docs maps a repo-relative path to its contents.
func danglingTestNames(docs map[string]string, defined map[string]bool) []string {
	files := make([]string, 0, len(docs))
	for file, text := range docs {
		if !historyDocs[file] && !taskList.MatchString(text) {
			files = append(files, file)
		}
	}
	sort.Strings(files)
	var out []string
	for _, file := range files {
		for i, line := range strings.Split(docs[file], "\n") {
			for _, name := range testName.FindAllString(line, -1) {
				if !defined[name] {
					out = append(out, fmt.Sprintf("%s:%d: cites %s, which no _test.go defines", file, i+1, name))
				}
			}
		}
	}
	return out
}
