package objmodel

import (
	"fmt"
	"slices"
	"testing"

	"obiwan/internal/raceflag"
)

// holder reaches refs through an interface, a nested pointer and an array.
type holder struct {
	Any   any
	Inner *treeMeta
	Pair  [2]*Ref
}

// dir reaches its entries through a map only.
type dir struct {
	Entries map[string]*Ref
}

func newDir(n int) (*dir, map[string]*Ref) {
	d := &dir{Entries: make(map[string]*Ref, n)}
	for i := 0; i < n; i++ {
		d.Entries[fmt.Sprintf("k%02d", i)] = &Ref{}
	}
	return d, d.Entries
}

// TestAppendRefsMatchesRefsOf: over every shape a walk descends (slices,
// maps, nested structs, interfaces, arrays, more refs than the callers'
// four-slot buffers), AppendRefs into a stack buffer lists what RefsOf
// lists, in the same order, and after whatever dst already held.
func TestAppendRefsMatchesRefsOf(t *testing.T) {
	r := func() *Ref { return &Ref{} }
	many := &tree{Children: []*Ref{r(), r(), r(), r(), r(), nil, r()}, Meta: treeMeta{Root: r()}}
	d, _ := newDir(6)
	shapes := map[string]any{
		"node":        &node{Next: r()},
		"empty node":  &node{},
		"tree":        &tree{Children: []*Ref{r(), nil, r()}, ByName: map[string]*Ref{"b": r(), "a": r()}, Meta: treeMeta{Root: r()}},
		"spills":      many,
		"interface":   &holder{Any: &tree{Children: []*Ref{r()}}, Inner: &treeMeta{Root: r()}, Pair: [2]*Ref{nil, r()}},
		"ref in any":  &holder{Any: r()},
		"map":         d,
		"heavy":       &payloadHeavy{Next: r()},
		"nil pointer": (*tree)(nil),
		"bare slice":  []*Ref{r(), r()},
	}
	for name, obj := range shapes {
		want := RefsOf(obj)
		var buf [4]*Ref
		if got := AppendRefs(buf[:0], obj); !slices.Equal(got, want) {
			t.Fatalf("%s: AppendRefs %v, RefsOf %v", name, got, want)
		}
		head := r()
		got := AppendRefs([]*Ref{head}, obj)
		if len(got) != len(want)+1 || got[0] != head || !slices.Equal(got[1:], want) {
			t.Fatalf("%s: appended %v after %v, want %v", name, got[1:], head, want)
		}
	}
	if n := len(RefsOf(many)); n != 7 {
		t.Fatalf("spilling shape lists %d refs, want 7", n)
	}
}

// TestRefsOfMapOrderIsFixed: map-held refs come out in the codec's key
// order, the same on every call; Go's map iteration order would differ
// from one call to the next.
func TestRefsOfMapOrderIsFixed(t *testing.T) {
	d, entries := newDir(16)
	want := make([]*Ref, 0, 16)
	for i := 0; i < 16; i++ {
		want = append(want, entries[fmt.Sprintf("k%02d", i)])
	}
	for call := 0; call < 50; call++ {
		if got := RefsOf(d); !slices.Equal(got, want) {
			t.Fatalf("call %d: refs out of key order", call)
		}
	}
}

// TestAppendRefsAllocationsPinned: a walk of a one-ref node into a
// four-slot buffer allocates nothing.
func TestAppendRefsAllocationsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	n := &node{Value: make([]byte, 64), Next: &Ref{}}
	got := testing.AllocsPerRun(1000, func() {
		var buf [4]*Ref
		if refs := AppendRefs(buf[:0], n); len(refs) != 1 {
			t.Fatal("wrong refs")
		}
	})
	if got != 0 {
		t.Fatalf("a one-ref walk into a stack buffer allocates %.1f objects, pinned at 0", got)
	}
}
