package codec

import (
	"reflect"
	"sync"
	"time"
)

// A plan is what the type-directed codec (encodeReflect, decodeReflect,
// sizeReflect) needs to know about a Go type, worked out once per type: its
// kind, whether it or its address is a Marshaler and its address an
// Unmarshaler, whether it is a time.Time, a byte slice or a Frozen one, and
// the plans of what it holds: the element, the map key, and the struct
// fields that travel. A walk follows plans from its root down, so per value
// it asks reflect only what the value itself holds: a nil pointer,
// addressability (for a Marshaler on the address), lengths.
type plan struct {
	typ       reflect.Type
	kind      reflect.Kind
	marshal   marshalMode
	unmarshal bool // *typ is an Unmarshaler
	time      bool // time.Time: the fields are unexported, its UnixNano travels
	bytes     bool // a slice of bytes: one length-prefixed run
	frozen    bool // Frozen: a vector may reference it (Vector.inPlace)
	elem      *plan
	key       *plan
	fields    []field
}

type marshalMode uint8

const (
	marshalNone  marshalMode = iota
	marshalValue             // typ is a Marshaler
	marshalAddr              // only *typ is: a value marshals through its address, or a copy's
)

// field is one struct field that travels: exported, and not tagged
// `obiwan:"-"`.
type field struct {
	index int
	name  string
	plan  *plan
}

var (
	timeType   = reflect.TypeOf(time.Time{})
	frozenType = reflect.TypeOf(Frozen(nil))
)

var (
	plans   sync.Map   // reflect.Type -> *plan, complete ones only
	buildMu sync.Mutex // one builder at a time: one plan per type
)

// planOf returns t's plan, building it (and the plans it refers to) on
// first use. A plan is stored for others to load only once the whole graph
// below it is complete; inside one build it is published to the builder
// before its children are filled in, so a recursive type's plan refers to
// itself.
func planOf(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	buildMu.Lock()
	defer buildMu.Unlock()
	building := map[reflect.Type]*plan{}
	p := build(t, building)
	for t, p := range building {
		plans.Store(t, p)
	}
	return p
}

func build(t reflect.Type, building map[reflect.Type]*plan) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	if p, ok := building[t]; ok {
		return p
	}
	p := &plan{typ: t, kind: t.Kind(), time: t == timeType, frozen: t == frozenType}
	building[t] = p
	switch {
	case t.Implements(marshalerType):
		p.marshal = marshalValue
	case reflect.PointerTo(t).Implements(marshalerType):
		p.marshal = marshalAddr
	}
	p.unmarshal = reflect.PointerTo(t).Implements(unmarshalerType)
	switch p.kind {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		p.elem = build(t.Elem(), building)
		p.bytes = p.kind == reflect.Slice && p.elem.kind == reflect.Uint8
	case reflect.Map:
		p.key, p.elem = build(t.Key(), building), build(t.Elem(), building)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() && f.Tag.Get("obiwan") != "-" {
				p.fields = append(p.fields, field{index: i, name: f.Name, plan: build(f.Type, building)})
			}
		}
	}
	return p
}
