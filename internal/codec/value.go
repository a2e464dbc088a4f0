package codec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"time"
)

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
	tagNamed  byte = 0x0a // registered type: 4-byte TypeID (LE) + type-directed payload
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
		e.writeByteSlice(x, true, vec)
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
	// A registered type travels by its name's id. Typed slices and
	// string-keyed maps encode like their canonical counterparts ([]any /
	// map[string]any) via reflection; they decode as the canonical forms.
	rv := reflect.ValueOf(v)
	named, ok := reg.lookupType(rv.Type())
	if !ok {
		return e.valueReflect(reg, rv, vec)
	}
	e.buf = append(e.buf, tagNamed)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, named.id)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return fmt.Errorf("codec: nil pointer of registered type %q", named.name)
		}
		rv = rv.Elem()
	}
	p := planOf(rv.Type())
	// A registered struct is where the bytes are (a replication payload, a
	// put request): make room for all of it at once. Appended to field by
	// field, a 1.6 MB payload regrows its frame a dozen times, 1.25x each,
	// and every regrowth is a frame-sized allocation and copy. What a vector
	// references takes no room.
	e.buf = slices.Grow(e.buf, sizeReflect(reg, p, rv, vec))
	return e.encodeReflect(reg, p, rv, vec)
}

// valueReflect is Value for an unregistered value that is not one of the
// canonical forms: a typed slice or array, or a string-keyed map.
func (e *Encoder) valueReflect(reg *Registry, rv reflect.Value, vec *Vector) error {
	switch {
	case rv.Kind() == reflect.Slice || rv.Kind() == reflect.Array:
		e.buf = append(e.buf, tagSlice)
		e.WriteUvarint(uint64(rv.Len()))
		for i := 0; i < rv.Len(); i++ {
			if err := e.value(reg, rv.Index(i).Interface(), vec); err != nil {
				return fmt.Errorf("slice element %d: %w", i, err)
			}
		}
		return nil
	case rv.Kind() == reflect.Map && rv.Type().Key().Kind() == reflect.String:
		keys, _ := sortedMapKeys(rv, reflect.String)
		e.buf = append(e.buf, tagMap)
		e.WriteUvarint(uint64(len(keys)))
		for _, k := range keys {
			e.WriteString(k.String())
			if err := e.value(reg, rv.MapIndex(k).Interface(), vec); err != nil {
				return fmt.Errorf("map key %q: %w", k.String(), err)
			}
		}
		return nil
	}
	return fmt.Errorf("codec: unsupported value type %v (not registered)", rv.Type())
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
		if d.Remaining() < 4 {
			return nil, ErrTruncated
		}
		id := binary.LittleEndian.Uint32(d.take(4))
		named, ok := reg.typeOf(id)
		if !ok {
			return nil, fmt.Errorf("codec: unknown wire type id %#08x", id)
		}
		pv := reflect.New(named.t)
		if err := d.decodeReflect(reg, planOf(named.t), pv.Elem()); err != nil {
			return nil, fmt.Errorf("named type %q: %w", named.name, err)
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
	slices.Sort(keys)
	return keys
}

// EncodeStruct encodes v (a struct or pointer to struct) with the
// type-directed reflection codec. Both sites must agree on the Go type; use
// Value for self-describing encoding. Like Value for a registered struct, it
// makes room for the whole of v before it writes the first field, so an
// encoder started empty allocates its buffer once.
func (e *Encoder) EncodeStruct(reg *Registry, v any) error { return e.EncodeStructIn(reg, v, nil) }

// EncodeStructIn is EncodeStruct with buffer asked first for room: given the
// length v encodes to, it answers a slice that e's bytes, then v, are
// appended to, or nil to keep e's own.
func (e *Encoder) EncodeStructIn(reg *Registry, v any, buffer func(n int) []byte) error {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return fmt.Errorf("codec: EncodeStruct of nil pointer")
		}
		rv = rv.Elem()
	}
	p := planOf(rv.Type())
	n := sizeReflect(reg, p, rv, nil)
	if buffer != nil {
		if b := buffer(n); b != nil {
			e.buf = append(b, e.buf...)
		}
	}
	e.buf = slices.Grow(e.buf, n)
	return e.encodeReflect(reg, p, rv, nil)
}

// DecodeStruct decodes into v, which must be a non-nil pointer to the same
// type encoded with EncodeStruct.
func (d *Decoder) DecodeStruct(reg *Registry, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("codec: DecodeStruct needs a non-nil pointer, got %T", v)
	}
	rv = rv.Elem()
	return d.decodeReflect(reg, planOf(rv.Type()), rv)
}

// encodeReflect is the type-directed codec: it walks rv's static structure
// along p, its type's plan. Types implementing Marshaler take over their own
// encoding (see marshal). Pointers always carry a presence byte first, so
// nil and custom-marshaled pointees stay symmetric on the wire. vec is
// VectorValue's, nil for a contiguous encoding.
func (e *Encoder) encodeReflect(reg *Registry, p *plan, rv reflect.Value, vec *Vector) error {
	if p.kind == reflect.Pointer {
		if rv.IsNil() {
			e.WriteBool(false)
			return nil
		}
		e.WriteBool(true)
		return e.encodeReflect(reg, p.elem, rv.Elem(), vec)
	}
	if p.marshal != marshalNone {
		return e.marshal(p, rv)
	}
	if p.time {
		e.WriteVarint(rv.Interface().(time.Time).UnixNano())
		return nil
	}
	switch p.kind {
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
		if p.bytes {
			e.writeByteSlice(rv.Bytes(), p.frozen, vec)
			return nil
		}
		e.WriteUvarint(uint64(rv.Len()))
		for i := 0; i < rv.Len(); i++ {
			if err := e.encodeReflect(reg, p.elem, rv.Index(i), vec); err != nil {
				return fmt.Errorf("[%d]: %w", i, err)
			}
		}
	case reflect.Array:
		for i := 0; i < rv.Len(); i++ {
			if err := e.encodeReflect(reg, p.elem, rv.Index(i), vec); err != nil {
				return fmt.Errorf("[%d]: %w", i, err)
			}
		}
	case reflect.Map:
		keys, err := sortedMapKeys(rv, p.key.kind)
		if err != nil {
			return err
		}
		e.WriteUvarint(uint64(len(keys)))
		for _, k := range keys {
			if err := e.encodeReflect(reg, p.key, k, vec); err != nil {
				return fmt.Errorf("map key %v: %w", k, err)
			}
			if err := e.encodeReflect(reg, p.elem, rv.MapIndex(k), vec); err != nil {
				return fmt.Errorf("map[%v]: %w", k, err)
			}
		}
	case reflect.Struct:
		for _, f := range p.fields {
			if err := e.encodeReflect(reg, f.plan, rv.Field(f.index), vec); err != nil {
				return fmt.Errorf("field %s: %w", f.name, err)
			}
		}
	case reflect.Interface:
		return e.value(reg, rv.Interface(), vec)
	default:
		return fmt.Errorf("codec: unsupported kind %v", p.kind)
	}
	return nil
}

// marshal appends rv's own encoding. A Marshaler on the address marshals a
// value that has none (a field of a struct passed by value) through an
// addressable copy, as the decoder, which always has an address, reads it.
func (e *Encoder) marshal(p *plan, rv reflect.Value) error {
	if p.marshal == marshalAddr {
		if !rv.CanAddr() {
			c := reflect.New(p.typ).Elem()
			c.Set(rv)
			rv = c
		}
		rv = rv.Addr()
	}
	b, err := rv.Interface().(Marshaler).MarshalOBI(e.buf)
	if err != nil {
		return err
	}
	e.buf = b
	return nil
}

// unmarshal hands the rest of the input to rv's Unmarshaler and moves past
// what it reports consumed.
func (d *Decoder) unmarshal(p *plan, rv reflect.Value) error {
	n, err := rv.Addr().Interface().(Unmarshaler).UnmarshalOBI(d.buf[d.off:])
	if err != nil {
		return err
	}
	if n < 0 || n > d.Remaining() {
		return fmt.Errorf("%w: %v unmarshaled %d of %d bytes", ErrCorrupt, p.typ, n, d.Remaining())
	}
	d.off += uint32(n)
	return nil
}

// decodeReflect decodes into rv, which must be addressable, along p, its
// type's plan.
func (d *Decoder) decodeReflect(reg *Registry, p *plan, rv reflect.Value) error {
	if p.kind == reflect.Pointer {
		present, err := d.ReadBool()
		if err != nil {
			return err
		}
		if !present {
			rv.SetZero()
			return nil
		}
		pv := reflect.New(p.elem.typ)
		if err := d.decodeReflect(reg, p.elem, pv.Elem()); err != nil {
			return err
		}
		rv.Set(pv)
		return nil
	}
	if p.unmarshal {
		return d.unmarshal(p, rv)
	}
	if p.time {
		ns, err := d.ReadVarint()
		if err != nil {
			return err
		}
		rv.Set(reflect.ValueOf(time.Unix(0, ns)))
		return nil
	}
	switch p.kind {
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
			return fmt.Errorf("%w: int overflow %d into %v", ErrCorrupt, v, p.typ)
		}
		rv.SetInt(v)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v, err := d.ReadUvarint()
		if err != nil {
			return err
		}
		if rv.OverflowUint(v) {
			return fmt.Errorf("%w: uint overflow %d into %v", ErrCorrupt, v, p.typ)
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
		if p.bytes {
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
		out := reflect.MakeSlice(p.typ, n, n)
		for i := 0; i < n; i++ {
			if err := d.decodeReflect(reg, p.elem, out.Index(i)); err != nil {
				return fmt.Errorf("[%d]: %w", i, err)
			}
		}
		rv.Set(out)
	case reflect.Array:
		for i := 0; i < rv.Len(); i++ {
			if err := d.decodeReflect(reg, p.elem, rv.Index(i)); err != nil {
				return fmt.Errorf("[%d]: %w", i, err)
			}
		}
	case reflect.Map:
		if !supportedMapKey(p.key.kind) {
			return fmt.Errorf("codec: unsupported map key type %v", p.key.typ)
		}
		n, err := d.countedLen()
		if err != nil {
			return err
		}
		out := reflect.MakeMapWithSize(p.typ, n)
		for i := 0; i < n; i++ {
			kv := reflect.New(p.key.typ).Elem()
			if err := d.decodeReflect(reg, p.key, kv); err != nil {
				return fmt.Errorf("map key %d: %w", i, err)
			}
			ev := reflect.New(p.elem.typ).Elem()
			if err := d.decodeReflect(reg, p.elem, ev); err != nil {
				return fmt.Errorf("map[%v]: %w", kv, err)
			}
			out.SetMapIndex(kv, ev)
		}
		rv.Set(out)
	case reflect.Struct:
		for _, f := range p.fields {
			if err := d.decodeReflect(reg, f.plan, rv.Field(f.index)); err != nil {
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
		if !vv.Type().AssignableTo(p.typ) {
			return fmt.Errorf("%w: %v not assignable to %v", ErrTypeMismatch, vv.Type(), p.typ)
		}
		rv.Set(vv)
	default:
		return fmt.Errorf("codec: unsupported kind %v", p.kind)
	}
	return nil
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

// SortedMapKeys returns rv's keys in the order the codec encodes them, or
// an error for a key type it cannot encode.
func SortedMapKeys(rv reflect.Value) ([]reflect.Value, error) {
	return sortedMapKeys(rv, rv.Type().Key().Kind())
}

// sortedMapKeys returns the keys of rv, a map whose keys are of kind kind, in
// deterministic order (strings lexicographic, integers numeric).
func sortedMapKeys(rv reflect.Value, kind reflect.Kind) ([]reflect.Value, error) {
	if !supportedMapKey(kind) {
		return nil, fmt.Errorf("codec: unsupported map key type %v", rv.Type().Key())
	}
	keys := rv.MapKeys()
	switch {
	case kind == reflect.String:
		slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.String(), b.String()) })
	case kind >= reflect.Int && kind <= reflect.Int64:
		slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.Int(), b.Int()) })
	default:
		slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.Uint(), b.Uint()) })
	}
	return keys, nil
}
