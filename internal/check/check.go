// Package check decides the guarantees a run advertises from the run's
// recorded history, not from counters kept beside it. A history has two
// sides: the puts clients saw acknowledged (a harness's op log) and the
// puts masters installed (replication.EventPutApplied, emitted once per
// install on the member that installed it, recorded by Watch). Two
// properties are decided:
//
//   - (c) exactly-once: no member installs the same put twice. A put is
//     the key of the engine's exactly-once guard: its OID, the version it
//     was based on and its state's checksum. One install on each member of
//     a master group is one install per member, as on a single hub.
//   - (e) no acknowledged write missing: at the end of a run, every
//     acknowledged (OID, version) was installed at the member now serving
//     that OID, and as the same put that any other member installed as
//     that version: a member that skipped some puts and reached the
//     version with a later one has lost a write.
package check

import (
	"errors"
	"fmt"
	"sync"

	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
)

// The properties. A violation wraps the one it breaks and names the put
// and the member where it broke.
var (
	ErrExactlyOnce         = errors.New("(c) exactly-once")
	ErrNoAckedWriteMissing = errors.New("(e) no acknowledged write missing")
)

// Put is a put a client saw acknowledged: Client's write of OID, which
// the master answered with Version.
type Put struct {
	Client  string
	OID     objmodel.OID
	Version uint64
}

// install is one put a master installed: member emitted Event, an
// EventPutApplied.
type install struct {
	member string
	replication.Event
}

// History is the install side of a run, in install order. It is safe for
// concurrent use.
type History struct {
	mu       sync.Mutex
	installs []install
}

// Watch records every put e installs from now on as member's.
func (h *History) Watch(member string, e *replication.Engine) {
	e.AddEventObserver(func(ev replication.Event) {
		if ev.Kind == replication.EventPutApplied {
			h.mu.Lock()
			h.installs = append(h.installs, install{member, ev})
			h.mu.Unlock()
		}
	})
}

// Check decides both properties, with acked the acknowledged puts in the
// order clients saw them and serving the member now serving their OIDs.
// It returns the first violation of (c), else the first of (e), else nil.
func (h *History) Check(acked []Put, serving string) error {
	type put struct {
		oid            objmodel.OID
		base, checksum uint64
	}
	type write struct {
		oid     objmodel.OID
		version uint64
	}
	type memberPut struct {
		member string
		put
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	installedAs := make(map[memberPut]uint64, len(h.installs))
	atServing := make(map[write]put)
	for _, in := range h.installs {
		k := memberPut{in.member, put{in.OID, in.Base, in.Checksum}}
		if v, dup := installedAs[k]; dup {
			return fmt.Errorf("check: %w broken at %s: put of %v based on v%d (checksum %x) installed twice, as v%d and v%d",
				ErrExactlyOnce, in.member, in.OID, in.Base, in.Checksum, v, in.Version)
		}
		installedAs[k] = in.Version
		if in.member == serving {
			atServing[write{in.OID, in.Version}] = k.put
		}
	}
	ackedBy := make(map[write]string, len(acked))
	for _, a := range acked {
		w := write{a.OID, a.Version}
		if _, ok := atServing[w]; !ok {
			return fmt.Errorf("check: %w broken at %s: %s's put of %v, acknowledged as v%d, was never installed there",
				ErrNoAckedWriteMissing, serving, a.Client, a.OID, a.Version)
		}
		ackedBy[w] = a.Client
	}
	for _, in := range h.installs {
		w := write{in.OID, in.Version}
		if client, ok := ackedBy[w]; ok && atServing[w] != (put{in.OID, in.Base, in.Checksum}) {
			return fmt.Errorf("check: %w broken at %s: %s's put of %v, acknowledged as v%d and installed so at %s, was never installed there: v%d there is another put",
				ErrNoAckedWriteMissing, serving, client, in.OID, in.Version, in.member, in.Version)
		}
	}
	return nil
}
