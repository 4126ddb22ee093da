// Package linkcensus holds one test: every non-test function of the module
// outside e2ebench is either linked into one of the repository's programs or
// named on an allowlist together with the test that checks it. Code that no
// program runs and no test names as a paper algorithm or reference is dead,
// and the census fails until it is deleted or allowlisted.
package linkcensus

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const module = "forwarddecay"

// decl is one function or method declaration.
type decl struct {
	dir   string // package directory, relative to the module root
	sym   string // linker symbol, e.g. forwarddecay/agg.(*Sum).Observe
	ptr   string // pointer wrapper of a value-receiver method, else ""
	name  string // allowlist name, e.g. agg.(*Sum).Observe
	lines int
}

// allowEntry is one allowlist line: a function name or a whole package
// ("dir.*"), and the test in that package's directory that checks it.
type allowEntry struct {
	name, test string
	line       int
}

func TestLinkCensus(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	decls, mains := scanModule(t, root)
	linked := linkedSymbols(t, root, mains)
	allow := readAllowlist(t)

	byName := map[string]decl{}
	dirs := map[string]bool{}
	for _, d := range decls {
		byName[d.name] = d
		dirs[d.dir] = true
	}
	isLinked := func(d decl) bool {
		return linked[d.sym] || (d.ptr != "" && linked[d.ptr])
	}

	allowed := map[string]bool{}
	wholePkg := map[string]bool{}
	for _, e := range allow {
		dir, what := splitName(e.name)
		if what == "*" {
			if !dirs[dir] {
				t.Errorf("allow.txt:%d: package %s is gone", e.line, dir)
			}
			wholePkg[dir] = true
		} else if d, ok := byName[e.name]; !ok {
			t.Errorf("allow.txt:%d: %s is gone; drop its line", e.line, e.name)
		} else if isLinked(d) {
			t.Errorf("allow.txt:%d: %s is linked into a program now; drop its line", e.line, e.name)
		}
		allowed[e.name] = true
		if !hasTest(t, filepath.Join(root, dir), e.test) {
			t.Errorf("allow.txt:%d: %s names %s, which is not a test in %s", e.line, e.name, e.test, dir)
		}
	}

	unlinked, lines := 0, 0
	for _, d := range decls {
		if isLinked(d) {
			continue
		}
		unlinked++
		lines += d.lines
		if !allowed[d.name] && !wholePkg[d.dir] {
			t.Errorf("%s (%d lines) is linked into no program: delete it, or allowlist it with the test that checks it", d.name, d.lines)
		}
	}
	t.Logf("%d functions declared, %d unlinked (%d lines), %d allowlist entries", len(decls), unlinked, lines, len(allow))
}

// scanModule parses every non-test Go file outside e2ebench and testdata. It
// returns the function declarations and the directories of the programs:
// every package main under cmd/ and examples/.
func scanModule(t *testing.T, root string) ([]decl, []string) {
	var decls []decl
	mainDirs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if e.IsDir() {
			base := e.Name()
			if rel == "e2ebench" || base == "testdata" || (rel != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		isMain := f.Name.Name == "main"
		if isMain && (strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/")) {
			mainDirs[dir] = true
		}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "init" || (isMain && fn.Name.Name == "main" && fn.Recv == nil) {
				continue
			}
			d := decl{dir: dir, lines: fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1}
			member := fn.Name.Name
			if fn.Recv != nil {
				typ, ptr := recvType(fn.Recv.List[0].Type)
				if ptr {
					member = "(*" + typ + ")." + fn.Name.Name
				} else {
					member = typ + "." + fn.Name.Name
					d.ptr = module + "/" + dir + ".(*" + typ + ")." + fn.Name.Name
				}
			}
			d.sym = module + "/" + dir + "." + member
			d.name = dir + "." + member
			decls = append(decls, d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var mains []string
	for d := range mainDirs {
		mains = append(mains, d)
	}
	sort.Strings(mains)
	return decls, mains
}

// recvType returns a receiver's type name without type parameters, and
// whether the receiver is a pointer.
func recvType(x ast.Expr) (string, bool) {
	ptr := false
	if s, ok := x.(*ast.StarExpr); ok {
		x, ptr = s.X, true
	}
	switch v := x.(type) {
	case *ast.IndexExpr:
		x = v.X
	case *ast.IndexListExpr:
		x = v.X
	}
	return x.(*ast.Ident).Name, ptr
}

var nmLine = regexp.MustCompile(`^\s*[0-9a-f]*\s+([Tt])\s+(.+)$`)

// linkedSymbols builds the programs into a temporary directory, without
// inlining so that every function a program calls keeps its symbol, and
// returns the text symbols of the module the linker kept. Instantiation
// brackets are stripped, and each program's main.X becomes the symbol of its
// own directory.
func linkedSymbols(t *testing.T, root string, mains []string) map[string]bool {
	bin := t.TempDir()
	run := func(args ...string) []byte {
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		return out
	}
	if len(mains) == 0 {
		t.Fatal("no package main under cmd/ or examples/")
	}
	args := []string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}
	for _, d := range mains {
		args = append(args, "./"+d)
	}
	run(args...)
	run("build", "-C", "e2ebench", "-gcflags=all=-l", "-o", filepath.Join(bin, "fde2e"), "./cmd/fde2e")

	linked := map[string]bool{}
	programs := append([]string{"e2ebench/cmd/fde2e"}, mains...)
	for _, d := range programs {
		sc := bufio.NewScanner(bytes.NewReader(run("tool", "nm", filepath.Join(bin, filepath.Base(d)))))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			m := nmLine.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			sym := stripBrackets(m[2])
			if strings.HasPrefix(sym, "main.") {
				sym = module + "/" + d + sym[len("main"):]
			}
			if strings.HasPrefix(sym, module+"/") {
				linked[sym] = true
			}
		}
	}
	return linked
}

// stripBrackets removes generic instantiation brackets: F[go.shape.int] is F.
func stripBrackets(s string) string {
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

// readAllowlist reads testdata/allow.txt: one "name test" pair a line, where
// name is a package directory, a dot and a function (agg.NewDistinct,
// sample.(*WR).Merge) or "*" for the whole package; # starts a comment.
func readAllowlist(t *testing.T) []allowEntry {
	data, err := os.ReadFile(filepath.Join("testdata", "allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out []allowEntry
	seen := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 {
			t.Errorf("allow.txt:%d: want \"name test\", got %q", i+1, line)
			continue
		}
		if seen[f[0]] {
			t.Errorf("allow.txt:%d: %s listed twice", i+1, f[0])
		}
		seen[f[0]] = true
		out = append(out, allowEntry{name: f[0], test: f[1], line: i + 1})
	}
	return out
}

// splitName splits "internal/core.(*T).M" into its directory and member.
func splitName(name string) (dir, member string) {
	slash := strings.LastIndexByte(name, '/') + 1
	dot := strings.IndexByte(name[slash:], '.')
	if dot < 0 {
		return name, ""
	}
	return name[:slash+dot], name[slash+dot+1:]
}

// hasTest reports whether a _test.go file in dir declares the Test or Fuzz
// function name.
func hasTest(t *testing.T, dir, name string) bool {
	if !strings.HasPrefix(name, "Test") && !strings.HasPrefix(name, "Fuzz") {
		return false
	}
	decl := []byte("\nfunc " + name + "(")
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, decl) {
			return true
		}
	}
	return false
}
