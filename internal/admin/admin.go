// Package admin exposes a site's runtime state for inspection over RMI —
// the operations surface a deployable middleware needs: what does this
// site hold, how are its links doing, how much replication work has it
// done. The site facade exports the service at a well-known id, and
// cmd/obiwan-admin queries it from anywhere in the deployment.
package admin

import (
	"sort"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/heap"
	"obiwan/internal/platgc"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
)

// ObjectInfo describes one heap entry.
type ObjectInfo struct {
	OID           string
	TypeName      string
	Role          string
	Version       uint64
	Dirty         bool
	ClusterMember bool
	Provider      string
}

// SiteReport is the full inspection snapshot.
type SiteReport struct {
	Name          string
	Addr          string
	Objects       []ObjectInfo
	Masters       int
	Replicas      int
	DirtyReplicas int

	// RMI runtime counters.
	CallsSent     uint64
	CallsServed   uint64
	SendErrors    uint64
	RemoteFaults  uint64
	BytesSent     uint64
	BytesReceived uint64

	// Platform-object (proxy) lifecycle counters.
	ProxyOutsCreated     uint64
	ProxyOutsReclaimed   uint64
	ProxyOutsLive        uint64
	FaultsServedFromHeap uint64
	ProxyInsExported     uint64
	ProxyInsReused       uint64
}

func init() {
	codec.MustRegister("obiwan.admin.ObjectInfo", ObjectInfo{})
	codec.MustRegister("obiwan.admin.SiteReport", SiteReport{})
}

// Service is the exported admin object. Construct with NewService; all
// methods are remote-callable.
type Service struct {
	name   string
	rt     *rmi.Runtime
	heap   *heap.Heap
	engine *replication.Engine
	tel    *telemetry.Hub // nil when the site runs without telemetry
	fleet  FleetSource    // nil unless the site runs a collector
}

// NewService builds the admin service for one site. hub may be nil, in
// which case Scrape reports an empty chunk; fleet is the site's collector,
// nil when it runs none. Every exported method of the service is a remote
// endpoint, so it has no setters.
func NewService(name string, rt *rmi.Runtime, h *heap.Heap, eng *replication.Engine, hub *telemetry.Hub, fleet FleetSource) *Service {
	return &Service{name: name, rt: rt, heap: h, engine: eng, tel: hub, fleet: fleet}
}

// Report assembles the full snapshot.
func (s *Service) Report() *SiteReport {
	r := &SiteReport{Name: s.name, Addr: string(s.rt.Addr())}

	entries := s.heap.Entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].OID < entries[j].OID })
	for _, e := range entries {
		info := ObjectInfo{
			OID:           e.OID.String(),
			TypeName:      e.TypeName,
			Role:          e.Role.String(),
			Version:       e.Version(),
			Dirty:         e.Dirty(),
			ClusterMember: e.ClusterMember(),
		}
		if prov := e.Provider(); !prov.IsZero() {
			info.Provider = prov.String()
		}
		r.Objects = append(r.Objects, info)
		switch e.Role {
		case heap.Master:
			r.Masters++
		case heap.Replica:
			r.Replicas++
			if e.Dirty() {
				r.DirtyReplicas++
			}
		}
	}

	rs := s.rt.Stats()
	r.CallsSent = rs.CallsSent
	r.CallsServed = rs.CallsServed
	r.SendErrors = rs.SendErrors
	r.RemoteFaults = rs.RemoteFaults
	r.BytesSent = rs.BytesSent
	r.BytesReceived = rs.BytesReceived

	gc := s.engine.GC().Snapshot()
	fillGC(r, gc)
	return r
}

func fillGC(r *SiteReport, gc platgc.Stats) {
	r.ProxyOutsCreated = gc.ProxyOutsCreated
	r.ProxyOutsReclaimed = gc.ProxyOutsReclaimed
	r.ProxyOutsLive = gc.LiveProxyOuts()
	r.FaultsServedFromHeap = gc.FaultsServedFromHeap
	r.ProxyInsExported = gc.ProxyInsExported
	r.ProxyInsReused = gc.ProxyInsReused
}

// Ping returns the site name; a cheap liveness probe.
func (s *Service) Ping() string { return s.name }

// Flight returns the site's most recent stored flight-recorder dump —
// taken automatically on ErrUnavailable exhaustion or crash recovery —
// or, when nothing has been dumped, a live snapshot of the ring. It is a
// stored post-mortem, not a cursor stream, so it stays out of Scrape.
func (s *Service) Flight() *telemetry.FlightDump {
	f := s.tel.Flight()
	if d, ok := f.LastDump(); ok {
		return d
	}
	return f.Current("live", s.rt.Clock().Now())
}

// Client queries a remote site's admin service.
type Client struct {
	rt      *rmi.Runtime
	ref     rmi.RemoteRef
	timeout time.Duration // 0: the runtime's default call timeout
}

// NewClient wraps an admin reference for use from rt's site.
func NewClient(rt *rmi.Runtime, ref rmi.RemoteRef) *Client {
	return &Client{rt: rt, ref: ref}
}

// WithTimeout returns a copy of the client whose calls use d as the
// per-call deadline instead of the runtime default (d <= 0 restores the
// default).
func (c *Client) WithTimeout(d time.Duration) *Client {
	cc := *c
	if d < 0 {
		d = 0
	}
	cc.timeout = d
	return &cc
}

// call issues one admin RMI, honoring the client's timeout override.
func (c *Client) call(method string, args ...any) ([]any, error) {
	res, _, err := c.rt.CallWithin(telemetry.SpanContext{}, time.Time{}, c.ref, c.timeout, method, args...)
	return res, err
}

// Report fetches the remote snapshot.
func (c *Client) Report() (*SiteReport, error) {
	res, err := c.call("Report")
	if err != nil {
		return nil, err
	}
	report, ok := res[0].(*SiteReport)
	if !ok {
		return nil, errUnexpected(res[0])
	}
	return report, nil
}

// Flight fetches the remote flight-recorder dump.
func (c *Client) Flight() (*telemetry.FlightDump, error) {
	res, err := c.call("Flight")
	if err != nil {
		return nil, err
	}
	dump, ok := res[0].(*telemetry.FlightDump)
	if !ok {
		return nil, errUnexpected(res[0])
	}
	return dump, nil
}

// Ping probes the remote site.
func (c *Client) Ping() (string, error) {
	res, err := c.call("Ping")
	if err != nil {
		return "", err
	}
	name, ok := res[0].(string)
	if !ok {
		return "", errUnexpected(res[0])
	}
	return name, nil
}

type unexpectedReply struct{ got any }

func (e unexpectedReply) Error() string { return "admin: unexpected reply type" }

func errUnexpected(got any) error { return unexpectedReply{got: got} }
