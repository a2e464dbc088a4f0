package codec

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"time"
)

// timeType gets bespoke wire treatment: time.Time's fields are unexported,
// so the generic struct walk would silently encode nothing.
var timeType = reflect.TypeOf(time.Time{})

// Wire tags for the self-describing Value encoding. The tag space is
// append-only; never renumber released tags.
const (
	tagNil    byte = 0x00
	tagFalse  byte = 0x01
	tagTrue   byte = 0x02
	tagInt    byte = 0x03 // zig-zag varint; all signed integer kinds
	tagUint   byte = 0x04 // uvarint; all unsigned integer kinds
	tagFloat  byte = 0x05 // 8-byte IEEE-754; float32 widened
	tagString byte = 0x06
	tagBytes  byte = 0x07
	tagSlice  byte = 0x08 // count + Values
	tagMap    byte = 0x09 // count + (string key, Value) pairs
	tagNamed  byte = 0x0a // registered type: name + type-directed payload
)

// Value encodes v in self-describing form so a peer can decode it without
// prior type knowledge. Supported values: nil, booleans, all integer and
// float kinds, strings, []byte, []any, map[string]any, and any value whose
// (pointer-stripped) type is registered with the registry. Registered values
// decode as pointers to the registered type.
//
// Value is the encoding used for RMI arguments and results, mirroring how
// Java RMI serializes call frames.
func (e *Encoder) Value(reg *Registry, v any) error { return e.value(reg, v, nil) }

// VectorValue is Value for an encoding that is sent as a vector: a Frozen
// slice of at least minReferenced bytes, wherever it lies in v, is written
// as its length prefix alone and recorded in vec, to be sent from where it
// lies (Vector.Parts). The bytes on the wire are Value's. A nil vec is
// Value.
func (e *Encoder) VectorValue(reg *Registry, v any, vec *Vector) error {
	return e.value(reg, v, vec)
}

func (e *Encoder) value(reg *Registry, v any, vec *Vector) error {
	if v == nil {
		e.buf = append(e.buf, tagNil)
		return nil
	}
	switch x := v.(type) {
	case bool:
		if x {
			e.buf = append(e.buf, tagTrue)
		} else {
			e.buf = append(e.buf, tagFalse)
		}
		return nil
	case int:
		return e.taggedInt(int64(x))
	case int8:
		return e.taggedInt(int64(x))
	case int16:
		return e.taggedInt(int64(x))
	case int32:
		return e.taggedInt(int64(x))
	case int64:
		return e.taggedInt(x)
	case uint:
		return e.taggedUint(uint64(x))
	case uint8:
		return e.taggedUint(uint64(x))
	case uint16:
		return e.taggedUint(uint64(x))
	case uint32:
		return e.taggedUint(uint64(x))
	case uint64:
		return e.taggedUint(x)
	case uintptr:
		return e.taggedUint(uint64(x))
	case float32:
		e.buf = append(e.buf, tagFloat)
		e.WriteFloat64(float64(x))
		return nil
	case float64:
		e.buf = append(e.buf, tagFloat)
		e.WriteFloat64(x)
		return nil
	case string:
		e.buf = append(e.buf, tagString)
		e.WriteString(x)
		return nil
	case []byte:
		e.buf = append(e.buf, tagBytes)
		e.WriteBytes(x)
		return nil
	case Frozen:
		e.buf = append(e.buf, tagBytes)
		e.writeByteSlice(reflect.ValueOf(v), vec)
		return nil
	case []any:
		e.buf = append(e.buf, tagSlice)
		e.WriteUvarint(uint64(len(x)))
		for i, el := range x {
			if err := e.value(reg, el, vec); err != nil {
				return fmt.Errorf("slice element %d: %w", i, err)
			}
		}
		return nil
	case map[string]any:
		e.buf = append(e.buf, tagMap)
		e.WriteUvarint(uint64(len(x)))
		for _, k := range sortedKeys(x) {
			e.WriteString(k)
			if err := e.value(reg, x[k], vec); err != nil {
				return fmt.Errorf("map key %q: %w", k, err)
			}
		}
		return nil
	}
	// Typed slices and string-keyed maps encode like their canonical
	// counterparts ([]any / map[string]any) via reflection; they decode as
	// the canonical forms.
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Slice, reflect.Array:
		if _, registered := reg.NameOf(v); !registered {
			e.buf = append(e.buf, tagSlice)
			e.WriteUvarint(uint64(rv.Len()))
			for i := 0; i < rv.Len(); i++ {
				if err := e.value(reg, rv.Index(i).Interface(), vec); err != nil {
					return fmt.Errorf("slice element %d: %w", i, err)
				}
			}
			return nil
		}
	case reflect.Map:
		if rv.Type().Key().Kind() == reflect.String {
			if _, registered := reg.NameOf(v); !registered {
				keys := make([]string, 0, rv.Len())
				iter := rv.MapRange()
				for iter.Next() {
					keys = append(keys, iter.Key().String())
				}
				for i := 1; i < len(keys); i++ {
					for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
						keys[j], keys[j-1] = keys[j-1], keys[j]
					}
				}
				e.buf = append(e.buf, tagMap)
				e.WriteUvarint(uint64(len(keys)))
				for _, k := range keys {
					e.WriteString(k)
					kv := rv.MapIndex(reflect.ValueOf(k).Convert(rv.Type().Key()))
					if err := e.value(reg, kv.Interface(), vec); err != nil {
						return fmt.Errorf("map key %q: %w", k, err)
					}
				}
				return nil
			}
		}
	}

	// Fall back to the registry for named types.
	name, ok := reg.NameOf(v)
	if !ok {
		return fmt.Errorf("codec: unsupported value type %T (not registered)", v)
	}
	e.buf = append(e.buf, tagNamed)
	e.WriteString(name)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return fmt.Errorf("codec: nil pointer of registered type %q", name)
		}
		rv = rv.Elem()
	}
	// A registered struct is where the bytes are (a replication payload, a
	// put request): make room for all of it at once. Appended to field by
	// field, a 1.6 MB payload regrows its frame a dozen times, 1.25x each,
	// and every regrowth is a frame-sized allocation and copy. What a vector
	// references takes no room.
	e.buf = slices.Grow(e.buf, sizeReflect(reg, rv, vec))
	return e.encodeReflect(reg, rv, vec)
}

func (e *Encoder) taggedInt(v int64) error {
	e.buf = append(e.buf, tagInt)
	e.WriteVarint(v)
	return nil
}

func (e *Encoder) taggedUint(v uint64) error {
	e.buf = append(e.buf, tagUint)
	e.WriteUvarint(v)
	return nil
}

// Value decodes a value written by Encoder.Value. Named types decode as a
// pointer to the registered struct type.
func (d *Decoder) Value(reg *Registry) (any, error) {
	tag, err := d.ReadByte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagFalse:
		return false, nil
	case tagTrue:
		return true, nil
	case tagInt:
		return d.ReadVarint()
	case tagUint:
		return d.ReadUvarint()
	case tagFloat:
		return d.ReadFloat64()
	case tagString:
		return d.ReadString()
	case tagBytes:
		return d.ReadBytes()
	case tagSlice:
		n, err := d.countedLen()
		if err != nil {
			return nil, err
		}
		out := make([]any, n)
		for i := range out {
			el, err := d.Value(reg)
			if err != nil {
				return nil, fmt.Errorf("slice element %d: %w", i, err)
			}
			out[i] = el
		}
		return out, nil
	case tagMap:
		n, err := d.countedLen()
		if err != nil {
			return nil, err
		}
		out := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k, err := d.ReadString()
			if err != nil {
				return nil, err
			}
			v, err := d.Value(reg)
			if err != nil {
				return nil, fmt.Errorf("map key %q: %w", k, err)
			}
			out[k] = v
		}
		return out, nil
	case tagNamed:
		name, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		t, ok := reg.TypeOf(name)
		if !ok {
			return nil, fmt.Errorf("codec: unknown wire type %q", name)
		}
		pv := reflect.New(t)
		if err := d.decodeReflect(reg, pv.Elem()); err != nil {
			return nil, fmt.Errorf("named type %q: %w", name, err)
		}
		return pv.Interface(), nil
	default:
		return nil, fmt.Errorf("%w: unknown value tag %#x", ErrCorrupt, tag)
	}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: RMI frames carry few keys and this avoids pulling in
	// sort for the hot encode path.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// EncodeStruct encodes v (a struct or pointer to struct) with the
// type-directed reflection codec. Both sites must agree on the Go type; use
// Value for self-describing encoding. Like Value for a registered struct, it
// makes room for the whole of v before it writes the first field, so an
// encoder started empty allocates its buffer once.
func (e *Encoder) EncodeStruct(reg *Registry, v any) error {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return fmt.Errorf("codec: EncodeStruct of nil pointer")
		}
		rv = rv.Elem()
	}
	e.buf = slices.Grow(e.buf, sizeReflect(reg, rv, nil))
	return e.encodeReflect(reg, rv, nil)
}

// DecodeStruct decodes into v, which must be a non-nil pointer to the same
// type encoded with EncodeStruct.
func (d *Decoder) DecodeStruct(reg *Registry, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("codec: DecodeStruct needs a non-nil pointer, got %T", v)
	}
	return d.decodeReflect(reg, rv.Elem())
}

// encodeReflect is the type-directed codec: it walks rv's static structure.
// Types implementing Marshaler take over their own encoding (checked on
// both the value and its address). Pointers always carry a presence byte
// first, so nil and custom-marshaled pointees stay symmetric on the wire.
// vec is VectorValue's, nil for a contiguous encoding.
func (e *Encoder) encodeReflect(reg *Registry, rv reflect.Value, vec *Vector) error {
	if rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			e.WriteBool(false)
			return nil
		}
		e.WriteBool(true)
		return e.encodeReflect(reg, rv.Elem(), vec)
	}
	if m, ok := asMarshaler(rv); ok {
		return m.MarshalOBI(e)
	}
	if rv.Type() == timeType {
		t := rv.Interface().(time.Time)
		e.WriteVarint(t.UnixNano())
		return nil
	}
	switch rv.Kind() {
	case reflect.Bool:
		e.WriteBool(rv.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.WriteVarint(rv.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.WriteUvarint(rv.Uint())
	case reflect.Float32, reflect.Float64:
		e.WriteFloat64(rv.Float())
	case reflect.String:
		e.WriteString(rv.String())
	case reflect.Slice:
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			e.writeByteSlice(rv, vec)
			return nil
		}
		e.WriteUvarint(uint64(rv.Len()))
		for i := 0; i < rv.Len(); i++ {
			if err := e.encodeReflect(reg, rv.Index(i), vec); err != nil {
				return fmt.Errorf("[%d]: %w", i, err)
			}
		}
	case reflect.Array:
		for i := 0; i < rv.Len(); i++ {
			if err := e.encodeReflect(reg, rv.Index(i), vec); err != nil {
				return fmt.Errorf("[%d]: %w", i, err)
			}
		}
	case reflect.Map:
		keys, err := sortedMapKeys(rv)
		if err != nil {
			return err
		}
		e.WriteUvarint(uint64(len(keys)))
		for _, k := range keys {
			if err := e.encodeReflect(reg, k, vec); err != nil {
				return fmt.Errorf("map key %v: %w", k, err)
			}
			if err := e.encodeReflect(reg, rv.MapIndex(k), vec); err != nil {
				return fmt.Errorf("map[%v]: %w", k, err)
			}
		}
	case reflect.Struct:
		for _, f := range shippedFields(rv.Type()) {
			if err := e.encodeReflect(reg, rv.Field(f.index), vec); err != nil {
				return fmt.Errorf("field %s: %w", f.name, err)
			}
		}
	case reflect.Interface:
		if rv.IsNil() {
			return e.value(reg, nil, vec)
		}
		return e.value(reg, rv.Interface(), vec)
	default:
		return fmt.Errorf("codec: unsupported kind %v", rv.Kind())
	}
	return nil
}

// decodeReflect decodes into rv, which must be addressable.
func (d *Decoder) decodeReflect(reg *Registry, rv reflect.Value) error {
	if rv.Kind() == reflect.Pointer {
		present, err := d.ReadBool()
		if err != nil {
			return err
		}
		if !present {
			rv.SetZero()
			return nil
		}
		pv := reflect.New(rv.Type().Elem())
		if err := d.decodeReflect(reg, pv.Elem()); err != nil {
			return err
		}
		rv.Set(pv)
		return nil
	}
	if u, ok := asUnmarshaler(rv); ok {
		return u.UnmarshalOBI(d)
	}
	if rv.Type() == timeType {
		ns, err := d.ReadVarint()
		if err != nil {
			return err
		}
		rv.Set(reflect.ValueOf(time.Unix(0, ns)))
		return nil
	}
	switch rv.Kind() {
	case reflect.Bool:
		b, err := d.ReadBool()
		if err != nil {
			return err
		}
		rv.SetBool(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v, err := d.ReadVarint()
		if err != nil {
			return err
		}
		if rv.OverflowInt(v) {
			return fmt.Errorf("%w: int overflow %d into %v", ErrCorrupt, v, rv.Type())
		}
		rv.SetInt(v)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v, err := d.ReadUvarint()
		if err != nil {
			return err
		}
		if rv.OverflowUint(v) {
			return fmt.Errorf("%w: uint overflow %d into %v", ErrCorrupt, v, rv.Type())
		}
		rv.SetUint(v)
	case reflect.Float32, reflect.Float64:
		v, err := d.ReadFloat64()
		if err != nil {
			return err
		}
		rv.SetFloat(v)
	case reflect.String:
		s, err := d.ReadString()
		if err != nil {
			return err
		}
		rv.SetString(s)
	case reflect.Slice:
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			b, err := d.ReadBytes()
			if err != nil {
				return err
			}
			rv.SetBytes(b)
			return nil
		}
		n, err := d.countedLen()
		if err != nil {
			return err
		}
		out := reflect.MakeSlice(rv.Type(), n, n)
		for i := 0; i < n; i++ {
			if err := d.decodeReflect(reg, out.Index(i)); err != nil {
				return fmt.Errorf("[%d]: %w", i, err)
			}
		}
		rv.Set(out)
	case reflect.Array:
		for i := 0; i < rv.Len(); i++ {
			if err := d.decodeReflect(reg, rv.Index(i)); err != nil {
				return fmt.Errorf("[%d]: %w", i, err)
			}
		}
	case reflect.Map:
		if !supportedMapKey(rv.Type().Key().Kind()) {
			return fmt.Errorf("codec: unsupported map key type %v", rv.Type().Key())
		}
		n, err := d.countedLen()
		if err != nil {
			return err
		}
		out := reflect.MakeMapWithSize(rv.Type(), n)
		for i := 0; i < n; i++ {
			kv := reflect.New(rv.Type().Key()).Elem()
			if err := d.decodeReflect(reg, kv); err != nil {
				return fmt.Errorf("map key %d: %w", i, err)
			}
			ev := reflect.New(rv.Type().Elem()).Elem()
			if err := d.decodeReflect(reg, ev); err != nil {
				return fmt.Errorf("map[%v]: %w", kv, err)
			}
			out.SetMapIndex(kv, ev)
		}
		rv.Set(out)
	case reflect.Struct:
		for _, f := range shippedFields(rv.Type()) {
			if err := d.decodeReflect(reg, rv.Field(f.index)); err != nil {
				return fmt.Errorf("field %s: %w", f.name, err)
			}
		}
	case reflect.Interface:
		v, err := d.Value(reg)
		if err != nil {
			return err
		}
		if v == nil {
			rv.SetZero()
			return nil
		}
		vv := reflect.ValueOf(v)
		if !vv.Type().AssignableTo(rv.Type()) {
			return fmt.Errorf("%w: %v not assignable to %v", ErrTypeMismatch, vv.Type(), rv.Type())
		}
		rv.Set(vv)
	default:
		return fmt.Errorf("codec: unsupported kind %v", rv.Kind())
	}
	return nil
}

// shippedField is one field of a struct that travels: exported, and not
// tagged `obiwan:"-"`.
type shippedField struct {
	index int
	name  string
}

var shippedByType sync.Map // reflect.Type -> []shippedField

// shippedFields returns the fields of struct type t that travel, in
// declaration order. The list is computed once per type: the encoder, the
// decoder and the sizing walk each visit every field of every struct, and
// reflect.Type.Field builds a StructField and parses its tag on every call.
func shippedFields(t reflect.Type) []shippedField {
	if fs, ok := shippedByType.Load(t); ok {
		return fs.([]shippedField)
	}
	var fs []shippedField
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() && f.Tag.Get("obiwan") != "-" {
			fs = append(fs, shippedField{index: i, name: f.Name})
		}
	}
	shippedByType.Store(t, fs)
	return fs
}

// supportedMapKey reports whether a map key kind has a deterministic wire
// order.
func supportedMapKey(k reflect.Kind) bool {
	switch k {
	case reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return true
	default:
		return false
	}
}

// sortedMapKeys returns rv's keys in deterministic order (strings
// lexicographic, integers numeric).
func sortedMapKeys(rv reflect.Value) ([]reflect.Value, error) {
	kind := rv.Type().Key().Kind()
	if !supportedMapKey(kind) {
		return nil, fmt.Errorf("codec: unsupported map key type %v", rv.Type().Key())
	}
	keys := rv.MapKeys()
	var less func(a, b reflect.Value) bool
	switch {
	case kind == reflect.String:
		less = func(a, b reflect.Value) bool { return a.String() < b.String() }
	case kind >= reflect.Int && kind <= reflect.Int64:
		less = func(a, b reflect.Value) bool { return a.Int() < b.Int() }
	default:
		less = func(a, b reflect.Value) bool { return a.Uint() < b.Uint() }
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys, nil
}

func asMarshaler(rv reflect.Value) (Marshaler, bool) {
	if rv.Type().Implements(marshalerType) {
		if rv.Kind() == reflect.Pointer && rv.IsNil() {
			return nil, false
		}
		return rv.Interface().(Marshaler), true
	}
	if rv.CanAddr() && rv.Addr().Type().Implements(marshalerType) {
		return rv.Addr().Interface().(Marshaler), true
	}
	return nil, false
}

func asUnmarshaler(rv reflect.Value) (Unmarshaler, bool) {
	if rv.CanAddr() && rv.Addr().Type().Implements(unmarshalerType) {
		return rv.Addr().Interface().(Unmarshaler), true
	}
	return nil, false
}
