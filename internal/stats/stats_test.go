package stats

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("short", 1.5)
	tab.AddRow("a-much-longer-name", 42*time.Millisecond)
	if tab.Len() != 2 {
		t.Fatalf("len: %d", tab.Len())
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Fatalf("lines: %d\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[2], "1.500") {
		t.Fatalf("output:\n%s", buf.String())
	}
	// Columns align: the rule row is at least as wide as the longest cell.
	if len(lines[1]) < len("a-much-longer-name") {
		t.Fatalf("rule too short: %q", lines[1])
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow(1, "x")
	got := tab.CSV()
	if got != "a,b\n1,x\n" {
		t.Fatalf("csv: %q", got)
	}
}
