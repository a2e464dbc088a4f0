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

var bytesType = reflect.TypeOf([]byte(nil))

func sizeUvarint(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func sizeVarint(v int64) int { return sizeUvarint(uint64(v)<<1 ^ uint64(v>>63)) }

// sizePrefixed is the size of n bytes behind their length prefix.
func sizePrefixed(n int) int { return sizeUvarint(uint64(n)) + n }

// sizeValue returns the number of bytes Value appends for rv: a tag, then
// the self-describing form. With a vector (vec non-nil) it counts what
// VectorValue appends: the bytes that stay inline.
func sizeValue(reg *Registry, rv reflect.Value, vec *Vector) int {
	if rv.Kind() == reflect.Interface {
		rv = rv.Elem()
	}
	if !rv.IsValid() {
		return 1
	}
	if name, ok := reg.nameOfType(rv.Type()); ok {
		for rv.Kind() == reflect.Pointer && !rv.IsNil() {
			rv = rv.Elem()
		}
		return 1 + sizePrefixed(len(name)) + sizeReflect(reg, rv, vec)
	}
	switch rv.Kind() {
	case reflect.Slice, reflect.Array:
		if t := rv.Type(); t == bytesType || t == frozenType {
			return 1 + sizeReflect(reg, rv, vec)
		}
		n := 1 + sizeUvarint(uint64(rv.Len()))
		for i := 0; i < rv.Len(); i++ {
			n += sizeValue(reg, rv.Index(i), vec)
		}
		return n
	case reflect.Map:
		n := 1 + sizeUvarint(uint64(rv.Len()))
		for iter := rv.MapRange(); iter.Next(); {
			n += sizeReflect(reg, iter.Key(), vec) + sizeValue(reg, iter.Value(), vec)
		}
		return n
	case reflect.Bool:
		return 1 // the tag is the value
	}
	return 1 + sizeReflect(reg, rv, vec) // a number or a string, as encodeReflect writes it
}

// sizeReflect returns the number of bytes encodeReflect appends for rv (the
// type-directed form, no tags), so that Value can reserve room for a whole
// registered struct before it writes the first field. The walk copies
// nothing; it reads lengths. The figure is exact except for a Marshaler and
// a time.Time, which are charged marshalerSize. A byte slice a vector
// references (vec.inPlace) costs its length prefix alone.
func sizeReflect(reg *Registry, rv reflect.Value, vec *Vector) int {
	if rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return 1
		}
		return 1 + sizeReflect(reg, rv.Elem(), vec)
	}
	if _, ok := asMarshaler(rv); ok || rv.Type() == timeType {
		return marshalerSize
	}
	switch rv.Kind() {
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
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			if vec.inPlace(rv) {
				return sizeUvarint(uint64(rv.Len()))
			}
			return sizePrefixed(rv.Len())
		}
		n := sizeUvarint(uint64(rv.Len()))
		for i := 0; i < rv.Len(); i++ {
			n += sizeReflect(reg, rv.Index(i), vec)
		}
		return n
	case reflect.Array:
		n := 0
		for i := 0; i < rv.Len(); i++ {
			n += sizeReflect(reg, rv.Index(i), vec)
		}
		return n
	case reflect.Map:
		n := sizeUvarint(uint64(rv.Len()))
		for iter := rv.MapRange(); iter.Next(); {
			n += sizeReflect(reg, iter.Key(), vec) + sizeReflect(reg, iter.Value(), vec)
		}
		return n
	case reflect.Struct:
		n := 0
		for _, f := range shippedFields(rv.Type()) {
			n += sizeReflect(reg, rv.Field(f.index), vec)
		}
		return n
	case reflect.Interface:
		return sizeValue(reg, rv, vec)
	}
	return 0
}
