package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden harness: each fixture directory under testdata/src is
// type-checked against the real module (fixtures import the real
// flowhash/packet packages), the analyzer under test runs over it, and
// the diagnostics are matched against `// want `regexp`` comments —
// every diagnostic must land on a want's line and match its pattern, and
// every want must be hit. An analyzer that goes silent therefore fails
// its golden test, and one that over-reports fails it too.

// repoRoot walks up from the test's working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

var wantRe = regexp.MustCompile("want `([^`]+)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hits int
}

// runGolden loads the named fixture directories (paths relative to
// testdata/src) and checks one analyzer's diagnostics against their want
// comments.
func runGolden(t *testing.T, a *Analyzer, dirs ...string) {
	t.Helper()
	root := repoRoot(t)
	base, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	abs := make([]string, len(dirs))
	for i, d := range dirs {
		abs[i] = filepath.Join(base, filepath.FromSlash(d))
	}
	prog, err := LoadDirs(root, base, abs)
	if err != nil {
		t.Fatal(err)
	}

	// Collect want expectations from the fixture files (the program also
	// holds real module packages the fixtures import; those carry no
	// wants and must stay diagnostic-free here).
	var wants []*expectation
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			name := prog.Fset.Position(f.Pos()).Filename
			if !strings.HasPrefix(name, base) {
				continue
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", name, m[1], err)
						}
						wants = append(wants, &expectation{
							file: name,
							line: prog.Fset.Position(c.Pos()).Line,
							re:   re,
						})
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no want expectations found under %v — fixture rot?", dirs)
	}

	for _, d := range RunAnalyzers(prog, a) {
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hits++
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if w.hits == 0 {
			t.Errorf("%s:%d: no diagnostic matched want `%s`", w.file, w.line, w.re)
		}
	}
}

func TestHotpathGolden(t *testing.T) {
	runGolden(t, Hotpath, "hotpath")
}

// TestHotpathFlightGolden pins hotpath's flight-package scope: the hash
// and map bans that apply only inside the flight recorder's record seam.
func TestHotpathFlightGolden(t *testing.T) {
	// Order matters: fixture imports resolve against already-loaded dirs,
	// so dependencies come first.
	runGolden(t, Hotpath, "hotpath/flowhash", "hotpath/flight", "hotpath/flightroot")
}

func TestErrcloseGolden(t *testing.T) {
	runGolden(t, Errclose, "errclose/store", "errclose/free")
}

func TestLocksafeGolden(t *testing.T) {
	runGolden(t, Locksafe, "locksafe")
}
