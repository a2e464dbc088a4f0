package codec

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"obiwan/internal/raceflag"
)

// TestMemoIsBounded: whatever it is fed, a memo holds at most its slots'
// worth of strings, none longer than memoMaxLen, and every string it
// returns equals its input and is a copy (scribbling over the input after
// the fact changes none).
func TestMemoIsBounded(t *testing.T) {
	var m Memo
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		in := make([]byte, rng.Intn(2*memoMaxLen))
		rng.Read(in)
		if i%3 == 0 { // and some that repeat
			in = []byte(fmt.Sprint("repeat-", i%17))
		}
		want := string(in)
		got := m.string(in)
		for j := range in {
			in[j] ^= 0xff
		}
		if got != want {
			t.Fatalf("memo returned %q for %q", got, want)
		}
	}
	kept := 0
	for _, set := range m.sets {
		for _, s := range set {
			if len(s) > memoMaxLen {
				t.Fatalf("memo kept a %d-byte string, bound %d", len(s), memoMaxLen)
			}
			if s != "" {
				kept++
			}
		}
	}
	if kept > memoSets*memoWays || kept == 0 {
		t.Fatalf("memo keeps %d strings, bound %d", kept, memoSets*memoWays)
	}
	if size := unsafe.Sizeof(m); size > 1300 {
		t.Fatalf("a memo is %d bytes, past a connection's share of 1300", size)
	}
}

// TestMemoReturnsItsOwnCopy: a string decoded before comes back as the
// memo's stored string, without an allocation; a miss costs the copy alone,
// also when it forgets a string to make room; a long string and a nil memo
// copy every time.
func TestMemoReturnsItsOwnCopy(t *testing.T) {
	var m Memo
	b := []byte("127.0.0.1:40001")
	first := m.string(b)
	if again := m.string(bytes.Clone(b)); unsafe.StringData(again) != unsafe.StringData(first) {
		t.Fatal("a repeated string is a new copy, not the memo's")
	}
	if unsafe.StringData(first) == unsafe.SliceData(b) {
		t.Fatal("the memo's string is a window on its input")
	}
	long := bytes.Repeat([]byte("x"), memoMaxLen+1)
	if a, b := m.string(long), m.string(long); unsafe.StringData(a) == unsafe.StringData(b) {
		t.Fatal("a string over the bound was kept")
	}
	var none *Memo
	if a, b := none.string(b), none.string(b); unsafe.StringData(a) == unsafe.StringData(b) {
		t.Fatal("a nil memo returned one string twice")
	}
	if raceflag.Enabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { _ = m.string(b) }); n != 0 {
		t.Fatalf("a hit allocates %.0f objects, want 0", n)
	}
	unique := make([][]byte, 512)
	for i := range unique {
		unique[i] = []byte(fmt.Sprintf("never-again-%04d", i))
	}
	i := 0
	if n := testing.AllocsPerRun(len(unique)-1, func() { _ = m.string(unique[i]); i++ }); n != 1 {
		t.Fatalf("a miss in a full memo allocates %.2f objects, want 1 (the copy)", n)
	}
}

// lyingCount is an Unmarshaler that reports having consumed n bytes, or
// the whole input and one more when n is pastEnd.
type lyingCount struct{ n int }

const pastEnd = -2

func (l *lyingCount) UnmarshalOBI(src []byte) (int, error) {
	if l.n == pastEnd {
		return len(src) + 1, nil
	}
	return l.n, nil
}

// TestUnmarshalerCountOutOfRangeIsCorrupt: a hook that claims to have read
// fewer than none or more than the rest of the input is ErrCorrupt, not a
// panic or a decoder past its end.
func TestUnmarshalerCountOutOfRangeIsCorrupt(t *testing.T) {
	type holder struct{ L lyingCount }
	reg := NewRegistry()
	for _, n := range []int{-1, pastEnd} {
		d := NewDecoder([]byte{1, 2, 3})
		out := holder{L: lyingCount{n: n}}
		if err := d.DecodeStruct(reg, &out); !errors.Is(err, ErrCorrupt) {
			t.Errorf("consumed %d: %v, want ErrCorrupt", n, err)
		}
		if d.Offset() != 0 {
			t.Errorf("consumed %d: the decoder moved to %d", n, d.Offset())
		}
	}
	d := NewDecoder([]byte{1, 2, 3})
	if err := d.DecodeStruct(reg, &holder{L: lyingCount{n: 2}}); err != nil || d.Offset() != 2 {
		t.Fatalf("a count in range: %v, offset %d", err, d.Offset())
	}
}

// TestMapKeysSortLikeTheReference: the encoder's key order is the order
// sort.Slice gives, for string, negative-int and uint keys.
func TestMapKeysSortLikeTheReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	strs, ints, uints := map[string]int{}, map[int64]int{}, map[uint16]int{}
	anys := map[string]any{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("%016x", rng.Int63())[:1+rng.Intn(8)]
		strs[k], anys[k] = i, i
		ints[rng.Int63n(1<<20)-1<<19] = i
		uints[uint16(rng.Intn(1<<16))] = i
	}
	checkKeyOrder(t, strs)
	checkKeyOrder(t, ints)
	checkKeyOrder(t, uints)
	keys := sortedKeys(anys)
	if !sort.StringsAreSorted(keys) || len(keys) != len(anys) {
		t.Fatalf("map[string]any keys out of order or lost: %d of %d", len(keys), len(anys))
	}
}

func checkKeyOrder[K cmp.Ordered](t *testing.T, m map[K]int) {
	t.Helper()
	got, err := SortedMapKeys(reflect.ValueOf(m))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]K, 0, len(m))
	for k := range m {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("%T: %d keys, want %d", m, len(got), len(want))
	}
	for i := range want {
		if got[i].Interface().(K) != want[i] {
			t.Fatalf("%T: key %d is %v, want %v", m, i, got[i], want[i])
		}
	}
}

// TestLargeMapRoundTrips: a 50 000-key map encodes and decodes back whole.
func TestLargeMapRoundTrips(t *testing.T) {
	type holds struct{ M map[string]int }
	in := holds{M: make(map[string]int, 50000)}
	for i := 0; i < 50000; i++ {
		in.M[fmt.Sprintf("key-%05d", (i*7919)%50000)] = -i
	}
	reg := NewRegistry()
	var e Encoder
	if err := e.EncodeStruct(reg, in); err != nil {
		t.Fatal(err)
	}
	var out holds
	if err := NewDecoder(e.Bytes()).DecodeStruct(reg, &out); err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("a 50 000-key map does not round-trip: %v, %d keys back", err, len(out.M))
	}
}
