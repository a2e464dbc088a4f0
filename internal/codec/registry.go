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
// OBIWAN prototype.
//
// A Registry is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]reflect.Type
	byType map[reflect.Type]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName: make(map[string]reflect.Type),
		byType: make(map[reflect.Type]string),
	}
}

// Register binds name to the dynamic type of sample. If sample is a pointer,
// the element type is registered; values are always decoded as pointers to
// the registered type when the caller asks for a pointer. Registering the
// same name twice with the same type is a no-op; re-registering a name with
// a different type is reported as an error.
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
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[name]; ok {
		if prev == t {
			return nil
		}
		return fmt.Errorf("codec: name %q already registered for %v, cannot rebind to %v", name, prev, t)
	}
	if prev, ok := r.byType[t]; ok && prev != name {
		return fmt.Errorf("codec: type %v already registered as %q, cannot rebind to %q", t, prev, name)
	}
	r.byName[name] = t
	r.byType[t] = name
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
	return r.nameOfType(t)
}

func (r *Registry) nameOfType(t reflect.Type) (string, bool) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	name, ok := r.byType[t]
	return name, ok
}

// typeOf returns the Go type registered under name, a name still in a
// frame: the map lookup of the converted bytes does not allocate a string.
func (r *Registry) typeOf(name []byte) (reflect.Type, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.byName[string(name)]
	return t, ok
}

// Names returns all registered wire names, sorted. Useful for diagnostics.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
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
