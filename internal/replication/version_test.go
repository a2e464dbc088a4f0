package replication

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"obiwan/internal/objmodel"
	"obiwan/internal/telemetry"
)

// TestShippedStateCarriesItsOwnVersion: a demand that races a put ships the
// state and the version of one and the same install. Each put writes its
// own sequence number into the state and produces that number as the
// version, so every record assemble ships must carry a state whose number
// is its version. A record that pairs the old state with the new number
// would let a later put based on it pass the base-version check and
// silently overwrite the newer state. (With the version read and written
// outside the state-locked section, every run on two cores shipped torn
// records, both ways round: 3 to 316 of 10^5 in five runs, 3109 to 3639
// under -race.)
func TestShippedStateCarriesItsOwnVersion(t *testing.T) {
	master, _ := twoSites(t)
	reg := master.rt.Registry()
	obj := buildChain(t, master, 1, 8)[0]
	entry, _ := master.heap.EntryOf(obj)
	seq := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	base := entry.Version()
	obj.Body = seq(base) // nothing else runs yet

	const rounds = 100_000
	var wg sync.WaitGroup
	wg.Add(1)
	torn, last := 0, ""
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p, err := master.engine.assemble(telemetry.SpanContext{}, entry, DefaultSpec, "racer")
			if err != nil {
				t.Error(err)
				return
			}
			rec := p.Objects[0]
			var shipped doc
			if err := objmodel.RestoreState(reg, &shipped, rec.State); err != nil {
				t.Error(err)
				return
			}
			if got := binary.BigEndian.Uint64(shipped.Body); got != rec.Version {
				torn++
				last = fmt.Sprintf("the state of version %d shipped as version %d", got, rec.Version)
			}
		}
	}()
	for k := uint64(1); k <= rounds; k++ {
		state, err := objmodel.CaptureState(reg, &doc{Name: obj.Name, Body: seq(base + k)})
		if err != nil {
			t.Fatal(err)
		}
		req := &PutRequest{OID: uint64(entry.OID), BaseVersion: base + k - 1, State: state}
		if _, err := master.engine.installPut(entry, req, stateCRC(state), false); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if torn > 0 {
		t.Fatalf("%d of %d shipped records were torn; last: %s", torn, rounds, last)
	}
}
