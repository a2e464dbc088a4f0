package rmi

import (
	"errors"
	"fmt"
	"reflect"

	"obiwan/internal/invoke"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// Dispatcher is an exported object that dispatches its own inbound calls: a
// skeleton written out ahead of time, the Go analogue of the skeleton
// classes Java RMI generated. sc is the serve span's context (zero when the
// call is untraced) and caller the calling runtime's address, as its
// connection's Hello named it. A Dispatcher reports what a reflective
// skeleton of the same object would: a bad argument as an *invoke.Error of
// KindBadArgs, a method it does not have as KindNoSuchMethod, and a method's
// own error as KindApp (invoke's Args1, Args2, CheckArity, NoSuchMethod and
// Result build them), so the faults on the wire are the same either way.
// Export checks for it once; a Dispatcher's calls never reach reflection.
type Dispatcher interface {
	Dispatch(sc telemetry.SpanContext, caller transport.Addr, method string, args []any) ([]any, error)
}

// Idempotent is a Dispatcher that names its read-only methods: running one
// again changes nothing its first run did not. A call to such a method runs
// on every arrival, a retry included, and is never recorded in the dedupe
// table, so its reply is kept only while it is sent.
type Idempotent interface {
	Idempotent(method string) bool
}

// skeleton is the reflective Dispatcher Export builds for any other object:
// its exported methods, each planned once per type by package invoke, the
// dispatch it shares with local method invocation. A method whose first
// parameter is telemetry.SpanContext receives the serve span's context
// there; the caller never sends it, so replication handlers can parent
// their own spans under the inbound call without the trace context leaking
// into the remote method signature seen by clients. No method receives the
// caller's address.
type skeleton struct {
	recv reflect.Value
	plan *invoke.Plan
}

func (sk *skeleton) Dispatch(sc telemetry.SpanContext, _ transport.Addr, method string, args []any) ([]any, error) {
	return invoke.CallWithLead(sk.plan, sk.recv, method, sc, args)
}

// newSkeleton returns obj's dispatcher: obj itself when it is a Dispatcher,
// a reflective skeleton otherwise. Objects with no exported methods are
// rejected: they could never serve a call.
func newSkeleton(obj any) (Dispatcher, error) {
	if obj == nil {
		return nil, fmt.Errorf("rmi: cannot export nil")
	}
	if d, ok := obj.(Dispatcher); ok {
		return d, nil
	}
	rv := reflect.ValueOf(obj)
	plan, err := invoke.PlanOf(rv.Type())
	if err != nil {
		return nil, fmt.Errorf("rmi: %w", err)
	}
	return &skeleton{recv: rv, plan: plan}, nil
}

// serve runs method with args on d and returns either result values or a
// wire fault. A method's error becomes a FaultApp (the remote-exception
// path); a missing method or a bad argument its own fault code.
func serve(d Dispatcher, sc telemetry.SpanContext, caller transport.Addr, method string, args []any) ([]any, *wire.Fault) {
	results, err := d.Dispatch(sc, caller, method, args)
	if err == nil {
		return results, nil
	}
	var ie *invoke.Error
	if errors.As(err, &ie) {
		code := wire.FaultApp
		switch ie.Kind {
		case invoke.KindNoSuchMethod:
			code = wire.FaultNoSuchMethod
		case invoke.KindBadArgs:
			code = wire.FaultBadArgs
		}
		return nil, &wire.Fault{Code: code, Message: ie.Message}
	}
	return nil, &wire.Fault{Code: wire.FaultApp, Message: err.Error()}
}
