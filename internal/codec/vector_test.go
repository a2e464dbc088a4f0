package codec

import (
	"bytes"
	"testing"
)

// frozenRec carries Frozen slices everywhere a payload can: a field, a
// slice of them, behind an interface, and a plain []byte beside them.
type frozenRec struct {
	Name  string
	State Frozen
	More  []Frozen
	Plain []byte
	Any   any
	Next  *frozenRec
}

// TestVectorValueIsValueInPlace: VectorValue leaves out of the encoder's
// bytes exactly the Frozen slices of at least minReferenced bytes, and
// references them where they lie; joined, its parts are Value's bytes; and
// the sizing walk given a vector counts what stays inline, exactly.
func TestVectorValueIsValueInPlace(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("test.frozenRec", frozenRec{})
	frozen := func(n int) Frozen {
		b := make(Frozen, n)
		for i := range b {
			b[i] = byte(n + i*31)
		}
		return b
	}
	long := frozen(64 << 10)
	for _, tc := range []struct {
		name string
		v    any
		refs int
	}{
		{"empty", &frozenRec{}, 0},
		{"short of the constant", &frozenRec{State: frozen(minReferenced - 1)}, 0},
		{"at the constant", &frozenRec{State: frozen(minReferenced)}, 1},
		{"plain bytes never", &frozenRec{Plain: make([]byte, 64<<10)}, 0},
		{"everywhere", &frozenRec{
			Name: "root", State: long, More: []Frozen{frozen(minReferenced), nil, frozen(7), long},
			Plain: []byte("plain"), Any: frozen(minReferenced + 1),
			Next: &frozenRec{State: frozen(minReferenced)},
		}, 5},
		{"top level", []any{long, Frozen(nil), frozen(minReferenced - 1), "s"}, 1},
	} {
		plain := NewEncoder(0)
		if err := plain.Value(reg, tc.v); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var vec Vector
		e := NewEncoder(0)
		if err := e.VectorValue(reg, tc.v, &vec); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := valueSize(reg, tc.v, &vec); got != e.Len() {
			t.Errorf("%s: sized at %d with a vector, %d bytes stayed inline", tc.name, got, e.Len())
		}
		parts := vec.AppendParts(nil, e.Bytes())
		if vec.n != tc.refs || (parts == nil) != (tc.refs == 0) {
			t.Fatalf("%s: %d slices referenced in %d parts, want %d", tc.name, vec.n, len(parts), tc.refs)
		}
		joined := e.Bytes()
		if parts != nil {
			joined = bytes.Join(parts, nil)
		}
		if !bytes.Equal(joined, plain.Bytes()) {
			t.Errorf("%s: the joined vector differs from Value's bytes", tc.name)
		}
		for i := 1; i < len(parts); i += 2 {
			r := vec.ref(i / 2).b
			if &parts[i][0] != &r[0] || len(parts[i]) < minReferenced {
				t.Errorf("%s: part %d is not a referenced slice where it lies", tc.name, i)
			}
		}
	}
}
