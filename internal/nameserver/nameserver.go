// Package nameserver implements OBIWAN's bootstrap registry: the service
// where a site binds the root of an exported object graph so other sites
// can find it.
//
// In the paper's prototypical example "only object AProxyIn is registered
// in a name server, and S1 holds a remote reference to object AProxyIn,
// that was obtained from a name server" (§2). Everything else is reached by
// navigating the graph; the name server only holds roots.
//
// The server is itself an ordinary RMI object, so it can be embedded in any
// site or run standalone (cmd/nameserver).
package nameserver

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/transport"
)

// Errors returned by the registry. Over RMI they surface as *rmi.RemoteError
// with these messages.
var (
	// ErrNotFound is returned by Lookup/Unbind for unknown names.
	ErrNotFound = errors.New("nameserver: name not bound")
	// ErrAlreadyBound is returned by Bind when the name is taken; use
	// Rebind to replace.
	ErrAlreadyBound = errors.New("nameserver: name already bound")
)

// WellKnownID is the object id the name server exports under when it is
// the first export of its runtime (the standalone deployment). Clients that
// only know the address construct the reference with WellKnownRef.
const WellKnownID rmi.ObjID = 1

// WellKnownRef builds the reference to a standalone name server at addr.
func WellKnownRef(addr transport.Addr) rmi.RemoteRef {
	return rmi.RemoteRef{Addr: addr, ID: WellKnownID}
}

// Server is the registry implementation. It is exported over RMI; all its
// methods are remote-callable. Safe for concurrent use.
type Server struct {
	mu      sync.RWMutex
	entries map[string]replication.Descriptor
}

// NewServer returns an empty registry.
func NewServer() *Server {
	return &Server{entries: make(map[string]replication.Descriptor)}
}

// Serve exports the registry on rt and returns its reference. For a
// standalone name server, call this before any other export so the
// reference matches WellKnownRef.
func Serve(rt *rmi.Runtime) (*Server, rmi.RemoteRef, error) {
	s := NewServer()
	ref, err := rt.Export(s)
	if err != nil {
		return nil, rmi.RemoteRef{}, fmt.Errorf("nameserver: %w", err)
	}
	return s, ref, nil
}

// Bind registers d under name; fails if the name is taken by ANOTHER
// site. The owning site may bind again: a host that crashed and restarted
// from its WAL re-registers the names it already holds, and refusing it
// as a duplicate would orphan the binding forever (the dead incarnation
// can never unbind). Ownership is judged by the provider address — the
// stable site identity that survives restarts — extended to master
// groups: any current member of the binding's group (or a binder whose
// group includes the current provider) counts as the owner, so a newly
// elected leader can take over names its dead predecessor bound.
func (s *Server) Bind(name string, d *replication.Descriptor) error {
	if name == "" || d == nil {
		return fmt.Errorf("nameserver: empty name or descriptor")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.entries[name]; ok && !sameOwner(existing, *d) {
		return fmt.Errorf("%w: %q", ErrAlreadyBound, name)
	}
	s.entries[name] = *d
	return nil
}

// sameOwner reports whether a re-bind of existing by d comes from the
// same owning site or master group.
func sameOwner(existing, d replication.Descriptor) bool {
	if existing.Provider.Addr == d.Provider.Addr {
		return true
	}
	for _, m := range existing.Group {
		if m == d.Provider.Addr {
			return true
		}
	}
	for _, m := range d.Group {
		if m == existing.Provider.Addr {
			return true
		}
	}
	return false
}

// Rebind registers d under name, replacing any previous binding.
func (s *Server) Rebind(name string, d *replication.Descriptor) error {
	if name == "" || d == nil {
		return fmt.Errorf("nameserver: empty name or descriptor")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[name] = *d
	return nil
}

// Lookup resolves name to its descriptor.
func (s *Server) Lookup(name string) (*replication.Descriptor, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return &d, nil
}

// Unbind removes a binding.
func (s *Server) Unbind(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(s.entries, name)
	return nil
}

// List returns all bound names, sorted.
func (s *Server) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.entries))
	for n := range s.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Client is the remote-side handle to a name server.
type Client struct {
	rt  *rmi.Runtime
	ref rmi.RemoteRef
}

// NewClient wraps a name-server reference for use from rt's site.
func NewClient(rt *rmi.Runtime, ref rmi.RemoteRef) *Client {
	return &Client{rt: rt, ref: ref}
}

// Bind registers d under name at the remote registry.
func (c *Client) Bind(name string, d replication.Descriptor) error {
	_, err := c.rt.Call(c.ref, "Bind", name, &d)
	return err
}

// Rebind registers d under name, replacing any previous binding.
func (c *Client) Rebind(name string, d replication.Descriptor) error {
	_, err := c.rt.Call(c.ref, "Rebind", name, &d)
	return err
}

// Lookup resolves name at the remote registry.
func (c *Client) Lookup(name string) (replication.Descriptor, error) {
	res, err := c.rt.Call(c.ref, "Lookup", name)
	if err != nil {
		return replication.Descriptor{}, err
	}
	d, ok := res[0].(*replication.Descriptor)
	if !ok {
		return replication.Descriptor{}, fmt.Errorf("nameserver: unexpected lookup reply %T", res[0])
	}
	return *d, nil
}

// Unbind removes a binding at the remote registry.
func (c *Client) Unbind(name string) error {
	_, err := c.rt.Call(c.ref, "Unbind", name)
	return err
}

// List returns all names bound at the remote registry.
func (c *Client) List() ([]string, error) {
	res, err := c.rt.Call(c.ref, "List")
	if err != nil {
		return nil, err
	}
	raw, ok := res[0].([]any)
	if !ok {
		if res[0] == nil {
			return nil, nil
		}
		return nil, fmt.Errorf("nameserver: unexpected list reply %T", res[0])
	}
	names := make([]string, 0, len(raw))
	for _, v := range raw {
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("nameserver: non-string name %T", v)
		}
		names = append(names, s)
	}
	return names, nil
}
