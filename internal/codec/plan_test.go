package codec

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// tree refers to itself three ways, and through forest to itself again.
type tree struct {
	Name   string
	Left   *tree
	Kids   []tree
	ByName map[string]*tree
	Forest *forest
}

type forest struct {
	Trees []*tree
}

// TestPlanRecursiveType: a recursive type's plan refers to itself, a
// mutually recursive pair's plans refer to each other, and values of them
// round trip.
func TestPlanRecursiveType(t *testing.T) {
	p := planOf(reflect.TypeOf(tree{}))
	if len(p.fields) != 5 {
		t.Fatalf("tree has %d shipped fields, want 5", len(p.fields))
	}
	left, kids, byName, fo := p.fields[1].plan, p.fields[2].plan, p.fields[3].plan, p.fields[4].plan
	if left.elem != p || kids.elem != p || byName.elem.elem != p || fo.elem.fields[0].plan.elem.elem != p {
		t.Fatal("a recursive type's plan does not refer to itself")
	}
	if fo.elem != planOf(reflect.TypeOf(forest{})) {
		t.Fatal("forest has two plans")
	}
	in := &tree{Name: "root", Left: &tree{Name: "l"}, Kids: []tree{{Name: "k", Left: &tree{Name: "kl"}}},
		ByName: map[string]*tree{"x": {Name: "x"}, "nil": nil},
		Forest: &forest{Trees: []*tree{{Name: "f"}, nil}}}
	reg := NewRegistry()
	e := NewEncoder(0)
	if err := e.EncodeStruct(reg, in); err != nil {
		t.Fatal(err)
	}
	var out tree
	if err := NewDecoder(e.Bytes()).DecodeStruct(reg, &out); err != nil {
		t.Fatal(err)
	}
	again := NewEncoder(0)
	if err := again.EncodeStruct(reg, &out); err != nil || !bytes.Equal(again.Bytes(), e.Bytes()) {
		t.Fatalf("decoded and encoded again: %v\n%x\n%x", err, again.Bytes(), e.Bytes())
	}
	if out.Kids[0].Left.Name != "kl" || out.ByName["x"].Name != "x" || out.ByName["nil"] != nil || out.Forest.Trees[0].Name != "f" {
		t.Fatalf("round trip: %+v", out)
	}
}

// addrTag is a Marshaler on its address only.
type addrTag struct{ S string }

func (a *addrTag) MarshalOBI(dst []byte) ([]byte, error) {
	e := Encoder{buf: dst}
	e.WriteString("tag:" + a.S)
	return e.buf, nil
}

func (a *addrTag) UnmarshalOBI(src []byte) (int, error) {
	d := NewDecoder(src)
	s, err := d.ReadString()
	if tag, ok := strings.CutPrefix(s, "tag:"); ok {
		a.S = tag
	}
	return d.Offset(), err
}

type holdsAddrTag struct {
	N   int8
	Tag addrTag
}

// TestPlanAddressMarshalerByValue: a Marshaler on the address marshals a
// value that has none too (a field of a struct passed by value), through an
// addressable copy, so the bytes are the same by value and by pointer; the
// sizing walk charges the hook marshalerSize either way.
func TestPlanAddressMarshalerByValue(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("test.holdsAddrTag", holdsAddrTag{})
	v := holdsAddrTag{N: 1, Tag: addrTag{S: "x"}}
	for _, tc := range []struct {
		name, want string
		encode     func(e *Encoder) error
	}{
		// N is zig-zag 02; the tag is the string "tag:x" from MarshalOBI; a
		// Value leads with tagNamed and the name's TypeID, little-endian.
		{"EncodeStruct by value", "02" + "057461673a78", func(e *Encoder) error { return e.EncodeStruct(reg, v) }},
		{"EncodeStruct by pointer", "02" + "057461673a78", func(e *Encoder) error { return e.EncodeStruct(reg, &v) }},
		{"Value by value", "0a325475c2" + "02" + "057461673a78", func(e *Encoder) error { return e.Value(reg, v) }},
		{"Value by pointer", "0a325475c2" + "02" + "057461673a78", func(e *Encoder) error { return e.Value(reg, &v) }},
	} {
		e := NewEncoder(0)
		if err := tc.encode(e); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(e.Bytes()); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	for _, x := range []any{v, &v} {
		rv := reflect.ValueOf(x)
		if rv.Kind() == reflect.Pointer {
			rv = rv.Elem()
		}
		e := NewEncoder(0)
		if err := e.EncodeStruct(reg, x); err != nil {
			t.Fatal(err)
		}
		if got := sizeReflect(reg, planOf(rv.Type()), rv, nil); got < e.Len() || got > e.Len()+marshalerSize {
			t.Errorf("%T: sized at %d, EncodeStruct wrote %d", x, got, e.Len())
		}
	}
}

// TestAddressMarshalerRoundTripsByValue: a field whose hook is on its
// pointer comes back whether its struct was encoded by value or by pointer,
// and the fields after it with it.
func TestAddressMarshalerRoundTripsByValue(t *testing.T) {
	type tagged struct {
		N   int8
		Tag addrTag
		M   int8
	}
	reg := NewRegistry()
	reg.MustRegister("test.tagged", tagged{})
	in := tagged{N: 1, Tag: addrTag{S: "x"}, M: 7}
	for _, x := range []any{in, &in} {
		e := NewEncoder(0)
		if err := e.EncodeStruct(reg, x); err != nil {
			t.Fatal(err)
		}
		var out tagged
		if err := NewDecoder(e.Bytes()).DecodeStruct(reg, &out); err != nil || out != in {
			t.Errorf("EncodeStruct(%T) decodes to %+v (%v), want %+v", x, out, err, in)
		}
		e.Reset()
		if err := e.Value(reg, x); err != nil {
			t.Fatal(err)
		}
		if got, err := NewDecoder(e.Bytes()).Value(reg); err != nil || *got.(*tagged) != in {
			t.Errorf("Value(%T) decodes to %+v (%v), want %+v", x, got, err, in)
		}
	}
}

type leafRec struct{ X int }

type holdsAny struct {
	Any any
}

// TestPlanInterfaceFieldHoldsRegisteredType: an interface field holding a
// registered value, or a pointer to one, carries it as Value does (by name)
// and decodes as a pointer to it; an unregistered one is refused.
func TestPlanInterfaceFieldHoldsRegisteredType(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("test.leafRec", leafRec{})
	want := NewEncoder(0)
	if err := want.Value(reg, leafRec{X: 5}); err != nil {
		t.Fatal(err)
	}
	for _, held := range []any{leafRec{X: 5}, &leafRec{X: 5}} {
		e := NewEncoder(0)
		if err := e.EncodeStruct(reg, holdsAny{Any: held}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.Bytes(), want.Bytes()) {
			t.Errorf("%T in an interface field: %x, Value writes %x", held, e.Bytes(), want.Bytes())
		}
		var out holdsAny
		if err := NewDecoder(e.Bytes()).DecodeStruct(reg, &out); err != nil {
			t.Fatal(err)
		}
		if p, ok := out.Any.(*leafRec); !ok || p.X != 5 {
			t.Errorf("%T decoded as %#v", held, out.Any)
		}
	}
	if err := NewEncoder(0).EncodeStruct(reg, holdsAny{Any: struct{ Y int }{}}); err == nil {
		t.Error("an unregistered struct in an interface field encoded")
	}
}

// firstUse and firstUseLeaf are used by TestPlanConcurrentFirstUse only, so
// their plans are built there.
type firstUse struct {
	ByID map[int32]*firstUse
	Back *firstUse
}

type firstUseLeaf struct {
	Data Frozen
	Tag  addrTag
}

var firstUseRuns atomic.Int32

// TestPlanConcurrentFirstUse: goroutines meeting a type for the first time
// at once all get its one plan, and every plan in it is the one planOf
// returns for its type. Run under -race, it also checks that no goroutine
// reads a plan while it is being built. Each run of the test meets a type
// of its own: a struct with a field named after the run.
func TestPlanConcurrentFirstUse(t *testing.T) {
	const goroutines = 8
	typ := reflect.StructOf([]reflect.StructField{
		{Name: fmt.Sprintf("Leaves%d", firstUseRuns.Add(1)), Type: reflect.TypeOf([]firstUseLeaf(nil))},
		{Name: "Tree", Type: reflect.TypeOf(firstUse{})},
	})
	if _, ok := plans.Load(typ); ok {
		t.Fatalf("%v has a plan before the test", typ)
	}
	v := reflect.New(typ)
	v.Elem().Field(0).Set(reflect.ValueOf([]firstUseLeaf{{Data: Frozen("abc"), Tag: addrTag{S: "t"}}}))
	v.Elem().Field(1).Set(reflect.ValueOf(firstUse{ByID: map[int32]*firstUse{1: {}}, Back: &firstUse{}}))
	got := make([]*plan, goroutines)
	frames := make([][]byte, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			e := NewEncoder(0)
			if err := e.EncodeStruct(NewRegistry(), v.Interface()); err != nil {
				t.Error(err)
			}
			frames[i] = e.Bytes()
			got[i] = planOf(typ)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if got[i] != got[0] || !bytes.Equal(frames[i], frames[0]) {
			t.Fatalf("goroutine %d got plan %p and %x, goroutine 0 %p and %x", i, got[i], frames[i], got[0], frames[0])
		}
	}
	seen := map[*plan]bool{}
	var check func(p *plan)
	check = func(p *plan) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		if planOf(p.typ) != p {
			t.Errorf("%v has two plans", p.typ)
		}
		check(p.elem)
		check(p.key)
		for _, f := range p.fields {
			check(f.plan)
		}
	}
	check(got[0])
	// The root, []firstUseLeaf, firstUseLeaf, Frozen, byte, addrTag, string,
	// firstUse, its map, int32 and *firstUse.
	if len(seen) != 11 {
		t.Errorf("walked %d plans from the root, want 11", len(seen))
	}
}
