package codec

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Marshaler lets a type take over its own wire encoding. Types implementing
// Marshaler/Unmarshaler bypass the reflection-based struct codec; OBIWAN uses
// this for reference fields, whose wire form is an object identifier rather
// than the pointed-to data (the "swizzling" of the persistent-object
// literature the paper cites). MarshalOBI appends the wire form to dst and
// returns the extended slice. The hook sees bytes, never the Encoder or
// Decoder, so neither crosses an interface and both stay in their callers'
// frames.
type Marshaler interface {
	MarshalOBI(dst []byte) ([]byte, error)
}

// Unmarshaler is the decoding counterpart of Marshaler: UnmarshalOBI parses
// its wire form from the front of src and reports how many bytes it
// consumed; a count outside [0, len(src)] is ErrCorrupt. src aliases the
// frame, so the hook must not keep it.
type Unmarshaler interface {
	UnmarshalOBI(src []byte) (n int, err error)
}

var (
	marshalerType   = reflect.TypeOf((*Marshaler)(nil)).Elem()
	unmarshalerType = reflect.TypeOf((*Unmarshaler)(nil)).Elem()
)

// Registry maps stable wire names to Go types so that two sites can exchange
// struct values without sharing memory. It plays the role that class names
// and dynamic class loading play for Java serialization in the original
// OBIWAN prototype. A registered value travels as its name's type id
// (TypeID), not as the name.
//
// A Registry is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byID   map[uint32]registered
	byType map[reflect.Type]registered
}

// registered is one registration: a Go type, its wire name and its id.
type registered struct {
	t    reflect.Type
	name string
	id   uint32
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:   make(map[uint32]registered),
		byType: make(map[reflect.Type]registered),
	}
}

// TypeID is the 4-byte id a value registered under name travels as: the
// FNV-1a 32-bit hash of the name. It is a function of the name alone, so
// two sites that register the same names agree on every id without
// exchanging them; Register refuses a name whose id another name holds.
func TypeID(name string) uint32 { return fnv1a(name) }

// fnv1a is the FNV-1a 32-bit hash: fixed, so ids and what a workload
// allocates are repeatable.
func fnv1a[T string | []byte](s T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// Register binds name to the dynamic type of sample. If sample is a pointer,
// the element type is registered; values are always decoded as pointers to
// the registered type when the caller asks for a pointer. Registering the
// same name twice with the same type is a no-op; re-registering a name with
// a different type is reported as an error, and so is a name whose TypeID
// equals that of a name already registered.
func (r *Registry) Register(name string, sample any) error {
	if name == "" {
		return fmt.Errorf("codec: empty registration name")
	}
	t := reflect.TypeOf(sample)
	if t == nil {
		return fmt.Errorf("codec: cannot register nil sample for %q", name)
	}
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	reg := registered{t: t, name: name, id: TypeID(name)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byID[reg.id]; ok {
		switch {
		case prev.name != name:
			return fmt.Errorf("codec: name %q collides with %q on type id %#08x", name, prev.name, reg.id)
		case prev.t == t:
			return nil
		}
		return fmt.Errorf("codec: name %q already registered for %v, cannot rebind to %v", name, prev.t, t)
	}
	if prev, ok := r.byType[t]; ok {
		return fmt.Errorf("codec: type %v already registered as %q, cannot rebind to %q", t, prev.name, name)
	}
	r.byID[reg.id] = reg
	r.byType[t] = reg
	return nil
}

// MustRegister is Register but panics on error. It is intended for
// package-scoped registration of wire types, where a failure is a programmer
// error caught by the first test run.
func (r *Registry) MustRegister(name string, sample any) {
	if err := r.Register(name, sample); err != nil {
		panic(err)
	}
}

// NameOf returns the wire name registered for v's dynamic type (pointer
// indirections stripped).
func (r *Registry) NameOf(v any) (string, bool) {
	t := reflect.TypeOf(v)
	if t == nil {
		return "", false
	}
	reg, ok := r.lookupType(t)
	return reg.name, ok
}

// lookupType returns the registration of t (pointer indirections stripped).
func (r *Registry) lookupType(t reflect.Type) (registered, bool) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	reg, ok := r.byType[t]
	return reg, ok
}

// typeOf returns the registration whose type id is id.
func (r *Registry) typeOf(id uint32) (registered, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reg, ok := r.byID[id]
	return reg, ok
}

// Names returns all registered wire names, sorted. Useful for diagnostics.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byID))
	for _, reg := range r.byID {
		names = append(names, reg.name)
	}
	sort.Strings(names)
	return names
}

// defaultRegistry backs the package-level Register helpers. OBIWAN's own
// wire types register themselves here, mirroring the encoding/gob
// convention.
var defaultRegistry = NewRegistry()

// Register binds name to sample's type in the default registry.
func Register(name string, sample any) error { return defaultRegistry.Register(name, sample) }

// MustRegister is Register but panics on error.
func MustRegister(name string, sample any) { defaultRegistry.MustRegister(name, sample) }

// DefaultRegistry returns the process-wide registry used by Encoder.Value
// and Decoder.Value.
func DefaultRegistry() *Registry { return defaultRegistry }
