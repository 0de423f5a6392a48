package scalia_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// designGaps is the number of DESIGN.md promises that name no test but
// the ROADMAP item that would close them. It may only fall: a PR that
// closes a gap pins the promise to its tests and lowers this number.
const designGaps = 15

var (
	// promiseLine is one DESIGN.md promise: "- **ID** statement. Pins:
	// dir: TestA, TestB; dir: TestC" or "- **ID** statement. Gap: ROADMAP
	// item N."
	promiseLine = regexp.MustCompile(`^- \*\*([A-Z]+-[0-9]+)\*\* (.+?) (Pins|Gap): (.+)$`)
	promiseID   = regexp.MustCompile(`^- \*\*[A-Z]+-[0-9]+\*\*`)
	roadmapItem = regexp.MustCompile(`ROADMAP item ([0-9]+)`)
)

// TestDesignPromises holds DESIGN.md to its promise lines: every id is
// unique, every pinning test exists as a function of the package it is
// listed under (a "Func/Case" name as a case of the function's suite),
// every gap names a ROADMAP item that exists, and the number of gaps is
// designGaps. It logs the gaps, the promises no test pins.
func TestDesignPromises(t *testing.T) {
	design := readFile(t, "DESIGN.md")
	items := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([0-9]+)\. `).FindAllStringSubmatch(readFile(t, "ROADMAP.md"), -1) {
		items[m[1]] = true
	}
	funcs := map[string]map[string]bool{} // package dir -> its test files' functions
	seen := map[string]bool{}
	var promises, gaps int
	for _, line := range unfenced(design) {
		if !promiseID.MatchString(line) {
			continue
		}
		m := promiseLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed promise line: %s", line)
			continue
		}
		id, statement, kind, tail := m[1], m[2], m[3], m[4]
		if seen[id] {
			t.Errorf("%s: id used twice", id)
		}
		seen[id] = true
		promises++
		if kind == "Gap" {
			gaps++
			t.Logf("gap %s: %s (%s)", id, statement, tail)
			item := roadmapItem.FindStringSubmatch(tail)
			if item == nil || !items[item[1]] {
				t.Errorf("%s: gap names no ROADMAP item that exists: %q", id, tail)
			}
			continue
		}
		for _, group := range strings.Split(tail, "; ") {
			dir, names, ok := strings.Cut(group, ": ")
			if !ok || names == "" {
				t.Errorf("%s: pins %q name no package directory and tests", id, group)
				continue
			}
			if funcs[dir] == nil {
				funcs[dir] = testFuncs(t, dir)
			}
			for _, name := range strings.Split(names, ", ") {
				fn, sub, _ := strings.Cut(name, "/")
				if !funcs[dir][fn] {
					t.Errorf("%s names %s, which is not a test function of %s", id, fn, dir)
				}
				if sub != "" && !strings.Contains(readFile(t, filepath.Join("internal", "apitest", "apitest.go")), `"`+sub+`"`) {
					t.Errorf("%s: %s is not a case of the internal/apitest suite", id, name)
				}
			}
		}
	}
	if promises == 0 {
		t.Fatal("DESIGN.md holds no promise lines")
	}
	t.Logf("%d promises, %d pinned, %d gaps", promises, promises-gaps, gaps)
	switch {
	case gaps > designGaps:
		t.Errorf("%d gaps, more than the %d pinned: pin the new promise to a test", gaps, designGaps)
	case gaps < designGaps:
		t.Errorf("%d gaps, fewer than the %d pinned: lower designGaps to %d", gaps, designGaps, gaps)
	}
}

// testFuncs returns the names of the top-level functions of dir's test
// files (dir relative to the module root, "." for the root package).
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Errorf("package directory %s has no test files (%v)", dir, err)
		return map[string]bool{}
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
	}
	return names
}

// TestCitedSectionsExist: a section of DESIGN.md or EXPERIMENTS.md that
// is cited by its quoted title (EXPERIMENTS.md "Experiment index") or
// linked by its anchor ("DESIGN.md#the-write-path", or "](#anchor)" inside
// either document) is a heading of that document; a quoted title may be
// the start of the heading. Go comments outside bench/, the CI workflow,
// the verify skill, README.md and both documents are searched.
func TestCitedSectionsExist(t *testing.T) {
	docs := map[string]string{"DESIGN.md": readFile(t, "DESIGN.md"), "EXPERIMENTS.md": readFile(t, "EXPERIMENTS.md")}
	headings := map[string][]string{}
	anchors := map[string]map[string]bool{}
	for name, text := range docs {
		anchors[name] = map[string]bool{}
		for _, line := range unfenced(text) {
			if !strings.HasPrefix(line, "#") {
				continue
			}
			h := strings.TrimSpace(strings.TrimLeft(line, "#"))
			headings[name] = append(headings[name], h)
			anchors[name][slug(h)] = true
		}
	}

	// path -> the text searched: a Go file's comments, any other file whole
	sources := map[string]string{"README.md": readFile(t, "README.md")}
	for name, text := range docs {
		sources[name] = text
	}
	// The workflow and the verify skill may be left out of a copy of the
	// tree; where they are, they are checked.
	for _, path := range []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(path)
		switch {
		case err == nil:
			sources[path] = string(b)
		case !errors.Is(err, fs.ErrNotExist):
			t.Fatal(err)
		}
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		var text strings.Builder
		for _, c := range f.Comments {
			text.WriteString(c.Text())
		}
		sources[path] = text.String()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	quoted := regexp.MustCompile(`(DESIGN|EXPERIMENTS)\.md[,:]?\s*(?:§\s*)?["“]([^"”]+)["”]`)
	linked := regexp.MustCompile(`(?:(DESIGN\.md|EXPERIMENTS\.md)#|\]\(#)([a-z0-9_-]+)`)
	var cited int
	for path, text := range sources {
		// One line, comment markers dropped, so a title may wrap.
		var words []string
		for _, line := range strings.Split(text, "\n") {
			line = strings.TrimLeft(strings.TrimSpace(line), "#/")
			words = append(words, strings.Fields(line)...)
		}
		flat := strings.Join(words, " ")
		for _, m := range quoted.FindAllStringSubmatch(flat, -1) {
			doc, title := m[1]+".md", strings.TrimSpace(m[2])
			cited++
			found := false
			for _, h := range headings[doc] {
				if strings.HasPrefix(h, title) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s cites %s %q, which is no heading there", path, doc, title)
			}
		}
		for _, m := range linked.FindAllStringSubmatch(flat, -1) {
			doc := m[1]
			if doc == "" {
				// A bare "](#anchor)" link points into the document it is in.
				if docs[path] == "" {
					continue
				}
				doc = path
			}
			cited++
			if !anchors[doc][m[2]] {
				t.Errorf("%s links %s#%s, which is no heading there", path, doc, m[2])
			}
		}
	}
	if cited == 0 {
		t.Fatal("no citation found: the patterns no longer match the sources")
	}
	t.Logf("%d citations checked", cited)
}

// unfenced returns the lines of a markdown text outside its code fences.
func unfenced(text string) []string {
	var lines []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		} else if !fenced {
			lines = append(lines, line)
		}
	}
	return lines
}

// slug is GitHub's anchor for a heading: lower case, spaces as hyphens,
// every other character but letters, digits, hyphens and underscores
// dropped.
func slug(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || r < unicode.MaxASCII && (unicode.IsLetter(r) || unicode.IsDigit(r)):
			b.WriteRune(r)
		}
	}
	return b.String()
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
