package codec

import (
	"fmt"
	"testing"
)

// benchRecord approximates a replication ObjectRecord's shape.
type benchRecord struct {
	OID      uint64
	TypeName string
	Version  uint64
	State    []byte
}

func BenchmarkEncodeStruct(b *testing.B) {
	reg := NewRegistry()
	for _, size := range []int{64, 1024, 16 * 1024} {
		b.Run(fmt.Sprintf("state=%dB", size), func(b *testing.B) {
			rec := benchRecord{OID: 42, TypeName: "bench.record", Version: 7, State: make([]byte, size)}
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				e := NewEncoder(size + 64)
				if err := e.EncodeStruct(reg, rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeStruct(b *testing.B) {
	reg := NewRegistry()
	for _, size := range []int{64, 1024, 16 * 1024} {
		b.Run(fmt.Sprintf("state=%dB", size), func(b *testing.B) {
			rec := benchRecord{OID: 42, TypeName: "bench.record", Version: 7, State: make([]byte, size)}
			e := NewEncoder(size + 64)
			if err := e.EncodeStruct(reg, rec); err != nil {
				b.Fatal(err)
			}
			buf := e.Bytes()
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				var out benchRecord
				if err := NewDecoder(buf).DecodeStruct(reg, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkValueRoundTripCallFrame(b *testing.B) {
	// The shape of an RMI call frame's argument vector.
	reg := NewRegistry()
	args := []any{int64(7), "MethodName", []byte("payload-ish"), true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEncoder(64)
		for _, a := range args {
			if err := e.Value(reg, a); err != nil {
				b.Fatal(err)
			}
		}
		d := NewDecoder(e.Bytes())
		for range args {
			if _, err := d.Value(reg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEncodeMap encodes a struct holding a map[string]int, whose keys
// the encoder sorts: go test -run xxx -bench EncodeMap ./internal/codec
func BenchmarkEncodeMap(b *testing.B) {
	reg := NewRegistry()
	type holds struct{ M map[string]int }
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			v := holds{M: make(map[string]int, n)}
			for i := 0; i < n; i++ {
				v.M[fmt.Sprintf("key-%06d", (i*7919)%n)] = i
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var e Encoder
				if err := e.EncodeStruct(reg, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
