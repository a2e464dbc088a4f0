package obiwan

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testFuncNames returns the name of every Test function declared in a
// _test.go file under root, benchmark/ included.
func testFuncNames(t *testing.T, root string) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDocsNameExistingTests: every Test… name the documents mention is a
// test of the module, or a prefix of one as a -run pattern would be; a
// subtest path counts by its top-level part.
func TestDocsNameExistingTests(t *testing.T) {
	tests := testFuncNames(t, ".")
	mention := regexp.MustCompile(`\bTest[A-Z0-9_]\w*`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
		names:
			for _, name := range mention.FindAllString(line, -1) {
				for test := range tests {
					if strings.HasPrefix(test, name) {
						continue names
					}
				}
				t.Errorf("%s:%d names %s, which no test of the module starts with", doc, i+1, name)
			}
		}
	}
}
