package check

import (
	"errors"
	"strings"
	"testing"

	"obiwan/internal/replication"
)

// installAt builds the record of member installing a put of oid 7 based
// on base with checksum sum, producing version v.
func installAt(member string, base, sum, v uint64) install {
	return install{member, replication.Event{Kind: replication.EventPutApplied, OID: 7, Base: base, Checksum: sum, Version: v}}
}

// mustBreak fails unless err is a violation of property that names every
// one of names.
func mustBreak(t *testing.T, err, property error, names ...string) {
	t.Helper()
	if !errors.Is(err, property) {
		t.Fatalf("got %v, want a violation of %v", err, property)
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("violation %q does not name %q", err, name)
		}
	}
}

func TestDuplicateInstallBreaksExactlyOnce(t *testing.T) {
	h := &History{installs: []install{installAt("hub", 1, 0xab, 2), installAt("hub", 1, 0xab, 3)}}
	mustBreak(t, h.Check(nil, "hub"), ErrExactlyOnce, "at hub:", "based on v1 (checksum ab) installed twice, as v2 and v3")
}

func TestOneInstallPerGroupMemberIsExactlyOnce(t *testing.T) {
	h := &History{installs: []install{installAt("hub0", 1, 0xab, 2), installAt("hub1", 1, 0xab, 2), installAt("hub2", 1, 0xab, 2)}}
	if err := h.Check([]Put{{"s0001", 7, 2}}, "hub1"); err != nil {
		t.Fatal(err)
	}
}

func TestAckedVersionMissingAtServingMember(t *testing.T) {
	// v3 was installed, but only at the member that has since died.
	h := &History{installs: []install{installAt("hub0", 1, 0xab, 2), installAt("hub1", 1, 0xab, 2), installAt("hub0", 2, 0xcd, 3)}}
	mustBreak(t, h.Check([]Put{{"s0001", 7, 2}, {"s0001", 7, 3}}, "hub1"), ErrNoAckedWriteMissing,
		"at hub1:", "s0001's put of", "acknowledged as v3")
}

func TestAckedVersionReachedByAnotherPut(t *testing.T) {
	// hub1 skipped the put hub0 installed as v3, and reached v3 with the
	// next one.
	h := &History{installs: []install{installAt("hub0", 2, 0xcd, 3), installAt("hub1", 2, 0xef, 3)}}
	mustBreak(t, h.Check([]Put{{"s0001", 7, 3}}, "hub1"), ErrNoAckedWriteMissing,
		"at hub1:", "s0001's put of", "installed so at hub0")
}

func TestEmptyHistoryHolds(t *testing.T) {
	if err := new(History).Check(nil, "hub"); err != nil {
		t.Fatal(err)
	}
}
