// Package objmodel provides the dynamic object-graph substrate OBIWAN
// manipulates: object identities (OIDs), a type registry, reference
// discovery by reflection, and the Ref slot type that application objects
// hold in place of direct pointers to other OBIWAN objects.
//
// The original prototype leaned on the JVM for all of this — classes are
// self-describing, object graphs serialize natively, and dynamic proxies
// implement arbitrary interfaces at run time. Go has none of it, so this
// package rebuilds the contract the paper's architecture needs:
//
//   - An OBIWAN object is a pointer to a registered struct type. Its state
//     (exported fields) is what replication ships between sites.
//   - Objects reference each other only through *Ref fields ("objects can
//     only be manipulated by means of method invocation ... no direct
//     access to internal data" — §2.1 of the paper). A Ref either holds a
//     local target (master or replica) or a proxy-out stand-in that
//     resolves the object fault on first use.
//   - RefsOf discovers an object's reference fields by reflection, which
//     is what lets the replication engine traverse reachability graphs.
package objmodel

import (
	"fmt"
	"reflect"
	"sync"

	"obiwan/internal/codec"
	"obiwan/internal/invoke"
)

// OID is a globally unique object identity. The high bits carry the id of
// the site that created the master (see heap.New), so two sites can mint
// identities without coordination.
type OID uint64

// String formats the OID as site/sequence.
func (o OID) String() string {
	return fmt.Sprintf("%d/%d", uint64(o)>>48, uint64(o)&((1<<48)-1))
}

// Info describes a registered OBIWAN object type.
type Info struct {
	// Name is the stable wire name shared by all sites.
	Name string
	// Type is the struct type (pointer stripped).
	Type reflect.Type
}

var (
	typesMu     sync.RWMutex
	typesByName = make(map[string]*Info)
	typesByType = make(map[reflect.Type]*Info)

	refType = reflect.TypeOf((*Ref)(nil))
)

// RegisterType registers an application object type under a stable wire
// name. sample must be a struct or pointer to struct with at least one
// exported method (objects are manipulated only through methods). The type
// is simultaneously registered with the codec so its state can travel.
// Registration is idempotent for the same name/type pair.
//
// The type's methods are planned here, once: when S is T or *T, each method
// of a shape invoke's table holds is called directly, with no reflection, on
// LMI and behind the master's proxy-in (invoke.PlanDirect). A sample whose
// static type is any registers on the reflective path.
func RegisterType[S any](name string, sample S) error {
	t := reflect.TypeOf(sample)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil || t.Kind() != reflect.Struct {
		return fmt.Errorf("objmodel: %q: sample must be a struct or pointer to struct, got %T", name, sample)
	}
	// Planning *T's methods rejects a type without any, and LMI on its
	// objects then finds the plan built.
	if _, err := planMethods[S](t); err != nil {
		return fmt.Errorf("objmodel: %q: %w", name, err)
	}
	if err := codec.Register(name, sample); err != nil {
		return fmt.Errorf("objmodel: %w", err)
	}
	info := &Info{Name: name, Type: t}
	typesMu.Lock()
	defer typesMu.Unlock()
	if prev, ok := typesByName[name]; ok && prev.Type != t {
		return fmt.Errorf("objmodel: name %q already registered for %v", name, prev.Type)
	}
	typesByName[name] = info
	typesByType[t] = info
	return nil
}

// planMethods plans the methods of *t, with typed calls when S names t or
// *t statically.
func planMethods[S any](t reflect.Type) (*invoke.Plan, error) {
	switch reflect.TypeFor[S]() {
	case t:
		return invoke.PlanDirect[*S]()
	case reflect.PointerTo(t):
		return invoke.PlanDirect[S]()
	}
	return invoke.PlanOf(reflect.PointerTo(t))
}

// MustRegisterType is RegisterType but panics on error; for package-scoped
// registration.
func MustRegisterType[S any](name string, sample S) {
	if err := RegisterType(name, sample); err != nil {
		panic(err)
	}
}

// InfoByName returns the registered info for a wire name.
func InfoByName(name string) (*Info, bool) {
	typesMu.RLock()
	defer typesMu.RUnlock()
	info, ok := typesByName[name]
	return info, ok
}

// InfoOf returns the registered info for obj's dynamic type.
func InfoOf(obj any) (*Info, bool) {
	t := reflect.TypeOf(obj)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil {
		return nil, false
	}
	typesMu.RLock()
	defer typesMu.RUnlock()
	info, ok := typesByType[t]
	return info, ok
}

// New creates a zero instance (pointer to struct) of the registered type.
func (i *Info) New() any { return reflect.New(i.Type).Interface() }

// CaptureState serializes obj's exported fields (its replica state).
// Reference fields encode as their target OIDs. The result is the encoder's
// own buffer, allocated once (EncodeStruct sizes it before the first field)
// and handed over as it is: the state is copied once, out of the object, and
// not a second time out of the encoder. It is Frozen, so a frame may send it
// from where it lies, and its capacity is the size class it pins (16 394
// bytes of state hold an 18 432-byte block).
func CaptureState(reg *codec.Registry, obj any) (codec.Frozen, error) {
	return CaptureStateIn(reg, obj, nil)
}

// CaptureStateIn is CaptureState into the buffer lend answers for the
// state's length, or a fresh one for nil (codec.Encoder.EncodeStructIn).
func CaptureStateIn(reg *codec.Registry, obj any, lend func(n int) []byte) (codec.Frozen, error) {
	var e codec.Encoder
	if err := e.EncodeStructIn(reg, obj, lend); err != nil {
		return nil, fmt.Errorf("objmodel: capture %T: %w", obj, err)
	}
	return e.Bytes(), nil
}

// RestoreState decodes state into obj (a pointer to a registered struct).
// Reference fields come back unbound, carrying only their OIDs; the caller
// (the replication materializer) binds them. The decoder copies: obj's byte
// slices are the object's own and share nothing with state, so state may be
// read again (a snapshot restored twice, a log replayed) or belong to a
// buffer whose other contents live on without obj. AdoptState is the
// restore that keeps a received state's bytes instead.
func RestoreState(reg *codec.Registry, obj any, state []byte) error {
	return restore(codec.NewDecoder(state), reg, obj)
}

// AdoptState is RestoreState for a state that is the caller's to give away,
// together with the whole buffer it lies in: the rest of that buffer must
// share obj's fate (DESIGN.md §4, "Decoded values alias the frame"), and
// nothing may read or write the buffer afterwards. A state that
// codec.StaysInPlace is decoded borrowing, so obj's byte slices become
// windows on it, each with its capacity clipped to its length; a shorter one
// is copied, as RestoreState does.
func AdoptState(reg *codec.Registry, obj any, state []byte) error {
	if !codec.StaysInPlace(len(state)) {
		return RestoreState(reg, obj, state)
	}
	return restore(codec.NewBorrowingDecoder(state), reg, obj)
}

func restore(d *codec.Decoder, reg *codec.Registry, obj any) error {
	if err := d.DecodeStruct(reg, obj); err != nil {
		return fmt.Errorf("objmodel: restore %T: %w", obj, err)
	}
	return nil
}

// RefsOf returns every non-nil *Ref reachable through obj's exported
// fields: direct fields, elements of slices/arrays/maps, and fields of
// nested structs (a nested struct is part of the same OBIWAN object).
// It does not follow Refs — the targets are separate objects. The order
// is fixed: fields in declaration order, elements in index order, and map
// entries in the order the codec encodes their keys (sorted), so a
// bounded traversal and a payload's frontier are the same on every run.
//
// Discovery is driven by a cached per-type plan (see refplan.go), so
// payload-only fields cost nothing per call.
func RefsOf(obj any) []*Ref { return AppendRefs(nil, obj) }

// AppendRefs is RefsOf appending to dst, so a caller can walk into a
// buffer of its own (a stack array for the common few refs).
func AppendRefs(dst []*Ref, obj any) []*Ref {
	v := reflect.ValueOf(obj)
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return dst
		}
		v = v.Elem()
	}
	return collectRefs(v, dst)
}

func collectRefs(v reflect.Value, out []*Ref) []*Ref {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return out
		}
		if v.Type() == refType {
			return append(out, v.Interface().(*Ref))
		}
		return collectRefs(v.Elem(), out)
	case reflect.Struct:
		for _, f := range planFor(v.Type()).fields {
			fv := v.Field(f.index)
			if f.kind == refDirect {
				if !fv.IsNil() {
					out = append(out, fv.Interface().(*Ref))
				}
				continue
			}
			out = collectRefs(fv, out)
		}
	case reflect.Slice, reflect.Array:
		// Element types that cannot hold refs are skipped wholesale.
		if !couldContainRef(v.Type().Elem()) {
			return out
		}
		for i := 0; i < v.Len(); i++ {
			out = collectRefs(v.Index(i), out)
		}
	case reflect.Map:
		if !couldContainRef(v.Type().Elem()) {
			return out
		}
		keys, err := codec.SortedMapKeys(v)
		if err != nil {
			keys = v.MapKeys() // the codec cannot ship this map, so no payload depends on its order
		}
		for _, k := range keys {
			out = collectRefs(v.MapIndex(k), out)
		}
	case reflect.Interface:
		if !v.IsNil() {
			return collectRefs(v.Elem(), out)
		}
	}
	return out
}
