package codec

import (
	"math/bits"
	"reflect"
)

// marshalerSize is what a Marshaler is charged: its output is not known
// without running it. It covers objmodel.Ref (one uvarint); a Marshaler that
// writes more costs the encoder a regrowth, nothing else. A time.Time is
// charged the same, for its one varint.
const marshalerSize = 16

func sizeUvarint(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func sizeVarint(v int64) int { return sizeUvarint(uint64(v)<<1 ^ uint64(v>>63)) }

// sizePrefixed is the size of n bytes behind their length prefix.
func sizePrefixed(n int) int { return sizeUvarint(uint64(n)) + n }

// sizeByteSlice is the size of n bytes of a byte slice as the encoder writes
// them: behind their length prefix, or the prefix alone when the vector
// references them.
func sizeByteSlice(n int, frozen bool, vec *Vector) int {
	if vec.inPlace(frozen, n) {
		return sizeUvarint(uint64(n))
	}
	return sizePrefixed(n)
}

// valueSize returns the number of bytes Value appends for v: a tag, then
// the self-describing form, case for case as Encoder.value writes it. With a
// vector (vec non-nil) it counts what VectorValue appends: the bytes that
// stay inline.
func valueSize(reg *Registry, v any, vec *Vector) int {
	switch x := v.(type) {
	case nil, bool:
		return 1 // the tag is the value
	case int, int8, int16, int32, int64:
		return 1 + sizeVarint(reflect.ValueOf(x).Int())
	case uint, uint8, uint16, uint32, uint64, uintptr:
		return 1 + sizeUvarint(reflect.ValueOf(x).Uint())
	case float32, float64:
		return 1 + 8
	case string:
		return 1 + sizePrefixed(len(x))
	case []byte:
		return 1 + sizePrefixed(len(x))
	case Frozen:
		return 1 + sizeByteSlice(len(x), true, vec)
	case []any:
		n := 1 + sizeUvarint(uint64(len(x)))
		for _, el := range x {
			n += valueSize(reg, el, vec)
		}
		return n
	case map[string]any:
		n := 1 + sizeUvarint(uint64(len(x)))
		for k, el := range x {
			n += sizePrefixed(len(k)) + valueSize(reg, el, vec)
		}
		return n
	}
	rv := reflect.ValueOf(v)
	if _, ok := reg.lookupType(rv.Type()); !ok { // a typed slice or string-keyed map, or what Value refuses
		switch {
		case rv.Kind() == reflect.Slice || rv.Kind() == reflect.Array:
			n := 1 + sizeUvarint(uint64(rv.Len()))
			for i := 0; i < rv.Len(); i++ {
				n += valueSize(reg, rv.Index(i).Interface(), vec)
			}
			return n
		case rv.Kind() == reflect.Map && rv.Type().Key().Kind() == reflect.String:
			n := 1 + sizeUvarint(uint64(rv.Len()))
			for iter := rv.MapRange(); iter.Next(); {
				n += sizePrefixed(iter.Key().Len()) + valueSize(reg, iter.Value().Interface(), vec)
			}
			return n
		}
		return 0
	}
	for rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv = rv.Elem()
	}
	return 1 + 4 + sizeReflect(reg, planOf(rv.Type()), rv, vec)
}

// sizeReflect returns the number of bytes encodeReflect appends for rv, a
// value of p's type (the type-directed form, no tags), so that Value can
// reserve room for a whole registered struct before it writes the first
// field. The walk copies nothing; it reads lengths. The figure is exact
// except for a Marshaler and a time.Time, which are charged marshalerSize.
// A byte slice a vector references (vec.inPlace) costs its length prefix
// alone.
func sizeReflect(reg *Registry, p *plan, rv reflect.Value, vec *Vector) int {
	if p.kind == reflect.Pointer {
		if rv.IsNil() {
			return 1
		}
		return 1 + sizeReflect(reg, p.elem, rv.Elem(), vec)
	}
	if p.time || p.marshal != marshalNone {
		return marshalerSize
	}
	switch p.kind {
	case reflect.Bool:
		return 1
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return sizeVarint(rv.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return sizeUvarint(rv.Uint())
	case reflect.Float32, reflect.Float64:
		return 8
	case reflect.String:
		return sizePrefixed(rv.Len())
	case reflect.Slice:
		if p.bytes {
			return sizeByteSlice(rv.Len(), p.frozen, vec)
		}
		n := sizeUvarint(uint64(rv.Len()))
		for i := 0; i < rv.Len(); i++ {
			n += sizeReflect(reg, p.elem, rv.Index(i), vec)
		}
		return n
	case reflect.Array:
		n := 0
		for i := 0; i < rv.Len(); i++ {
			n += sizeReflect(reg, p.elem, rv.Index(i), vec)
		}
		return n
	case reflect.Map:
		n := sizeUvarint(uint64(rv.Len()))
		for iter := rv.MapRange(); iter.Next(); {
			n += sizeReflect(reg, p.key, iter.Key(), vec) + sizeReflect(reg, p.elem, iter.Value(), vec)
		}
		return n
	case reflect.Struct:
		n := 0
		for _, f := range p.fields {
			n += sizeReflect(reg, f.plan, rv.Field(f.index), vec)
		}
		return n
	case reflect.Interface:
		return valueSize(reg, rv.Interface(), vec)
	}
	return 0
}
