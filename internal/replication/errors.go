package replication

import (
	"errors"
	"fmt"
	"strings"

	"obiwan/internal/rmi"
	"obiwan/internal/transport"
)

// ErrUnavailable marks a replication operation that failed because the
// provider site could not be reached: the link is disconnected, the
// message was lost repeatedly, the call deadline expired, or the provider
// kept refusing the call as busy — after the RMI retry policy was
// exhausted. It is the typed surface of the paper's mobile scenario: the
// application can distinguish "the master said no" (a bare error) from
// "the master cannot be asked right now" (wrapped with ErrUnavailable),
// keep working on its replicas, and re-issue the operation after
// reconnection.
//
// Test with errors.Is(err, replication.ErrUnavailable). The underlying
// transport error stays in the chain, so errors.Is(err,
// netsim.ErrDisconnected) etc. keep working too.
var ErrUnavailable = errors.New("replication: provider unavailable")

// wrapUnavailable tags connectivity failures with ErrUnavailable and
// passes every other error through untouched.
func wrapUnavailable(err error) error {
	if err == nil {
		return nil
	}
	var re *rmi.RemoteError
	if transport.IsTransient(err) || errors.Is(err, rmi.ErrTimeout) || errors.As(err, &re) && re.IsBusy() {
		return fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	return err
}

// ErrNotLeader marks an operation that reached a master-group member
// which is not (or no longer) the group's leader. Unlike ErrUnavailable
// it guarantees the operation did NOT execute — the member refused before
// touching state — so callers may re-route freely. Test with
// errors.Is(err, replication.ErrNotLeader); the redirect hint, when the
// follower knows one, is recoverable with NotLeaderHint even after the
// error crossed an RMI boundary.
var ErrNotLeader = errors.New("replication: not the group leader")

// notLeaderMarker is the wire-surviving prefix a NotLeaderError renders
// to. RMI app faults flatten errors to strings, so the hint rides inside
// the message text and NotLeaderHint parses it back out.
const notLeaderMarker = "replication: not the group leader; hint="

// NotLeaderError is the typed redirect a master-group follower answers
// demands and puts with. Hint is the member the follower believes leads
// (empty when an election is in progress).
type NotLeaderError struct {
	Hint transport.Addr
}

func (e *NotLeaderError) Error() string {
	return notLeaderMarker + string(e.Hint)
}

// Is makes errors.Is(err, ErrNotLeader) match the typed redirect.
func (e *NotLeaderError) Is(target error) bool { return target == ErrNotLeader }

// NotLeaderHint extracts the leader hint from a not-leader failure, local
// or remote. ok reports whether err is a not-leader failure at all; the
// returned hint may still be empty (no leader known).
func NotLeaderHint(err error) (hint transport.Addr, ok bool) {
	var nl *NotLeaderError
	if errors.As(err, &nl) {
		return nl.Hint, true
	}
	var re *rmi.RemoteError
	if errors.As(err, &re) && re.IsApp() {
		if i := strings.Index(re.Message, notLeaderMarker); i >= 0 {
			rest := re.Message[i+len(notLeaderMarker):]
			// The marker ends the wrapped chain's message, but be robust
			// to suffixes appended by intermediate wrapping.
			if j := strings.IndexAny(rest, " \n:"); j >= 0 {
				rest = rest[:j]
			}
			return transport.Addr(rest), true
		}
	}
	return "", false
}
