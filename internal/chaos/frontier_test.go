package chaos

import (
	"fmt"
	"reflect"
	"testing"

	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/site"
)

// reach lists the nodes locally reachable from root, root first, without
// faulting anything in.
func reach(root *Node) []*Node {
	seen := map[*Node]bool{root: true}
	out := []*Node{root}
	for i := 0; i < len(out); i++ {
		for _, ref := range out[i].Kids {
			if !ref.IsResolved() {
				continue
			}
			obj, _ := ref.Resolve()
			if kid := obj.(*Node); !seen[kid] {
				seen[kid] = true
				out = append(out, kid)
			}
		}
	}
	return out
}

// wantFrontier is the frontier of n spelled out from public state, one
// descriptor per distinct target in reference order: a resolved target by
// how s would hand it out (Export for a master, which reuses the proxy-in
// the walk exported; the entry's provider for a replica), an unresolved
// one by its proxy-out's upstream provider.
func wantFrontier(s *site.Site, n *Node) ([]replication.FrontierRef, error) {
	var out []replication.FrontierRef
	seen := make(map[objmodel.OID]bool)
	for _, ref := range n.Kids {
		if seen[ref.OID()] {
			continue
		}
		seen[ref.OID()] = true
		fr := replication.FrontierRef{OID: uint64(ref.OID())}
		if !ref.IsResolved() {
			fr.Provider = ref.Faulter().(*replication.ProxyOut).Provider()
			out = append(out, fr)
			continue
		}
		obj, _ := ref.Resolve()
		entry, ok := s.Heap().EntryOf(obj)
		if !ok {
			return nil, fmt.Errorf("%s: target not in heap", n.Label)
		}
		fr.Provider = entry.Provider()
		if fr.Provider.IsZero() {
			d, err := s.Export(obj)
			if err != nil {
				return nil, err
			}
			fr.Provider = d.Provider
		}
		out = append(out, fr)
	}
	return out, nil
}

// TestFrontierWalkDescribers: the one ref-to-frontier loop under its two
// describers, over the examples' graph shapes. At the master the exporting
// walk (BuildFrontier) names every child by its proxy-in, while the
// recovery walk (CaptureImage) carries nothing for a local master and,
// the lock-order guarantee, exports nothing. At a client half way through
// the graph, where nothing is a master, both walks carry the same
// descriptors: replica providers and forwarded proxy-outs.
func TestFrontierWalkDescribers(t *testing.T) {
	for _, sh := range shapes() {
		t.Run(sh.name, func(t *testing.T) {
			w := NewVirtualWorld(1, netsim.Loopback)
			defer w.Close()
			err := w.Within(func() error {
				master, err := w.NewSite("master")
				if err != nil {
					return err
				}
				client, err := w.NewSite("client")
				if err != nil {
					return err
				}
				root, err := sh.build(master)
				if err != nil {
					return err
				}
				nodes := reach(root)
				if len(nodes) != sh.count {
					return fmt.Errorf("built %d nodes, want %d", len(nodes), sh.count)
				}

				exported := master.Engine().GC().Snapshot().ProxyInsExported
				for _, n := range nodes {
					_, frontier, err := master.Engine().CaptureImage(n)
					if err != nil {
						return err
					}
					if len(frontier) != 0 {
						return fmt.Errorf("%s: recovery walk at the master carries %v", n.Label, frontier)
					}
				}
				if got := master.Engine().GC().Snapshot().ProxyInsExported; got != exported {
					return fmt.Errorf("recovery walk exported %d proxy-ins", got-exported)
				}
				for _, n := range nodes {
					got, err := master.Engine().BuildFrontier(n)
					if err != nil {
						return err
					}
					want, err := wantFrontier(master, n)
					if err != nil {
						return err
					}
					if !reflect.DeepEqual(got, want) {
						return fmt.Errorf("%s: exporting walk\n got %v\nwant %v", n.Label, got, want)
					}
				}

				// The client faults in the root and its first child only.
				desc, err := master.Export(root)
				if err != nil {
					return err
				}
				held, err := objmodel.Deref[*Node](client.Engine().RefFromDescriptor(desc, spec1()))
				if err != nil {
					return err
				}
				if _, err := held.Kids[0].Resolve(); err != nil {
					return err
				}
				for _, n := range reach(held) {
					want, err := wantFrontier(client, n)
					if err != nil {
						return err
					}
					exporting, err := client.Engine().BuildFrontier(n)
					if err != nil {
						return err
					}
					_, recovery, err := client.Engine().CaptureImage(n)
					if err != nil {
						return err
					}
					if !reflect.DeepEqual(exporting, want) || !reflect.DeepEqual(recovery, want) {
						return fmt.Errorf("%s at the client:\nexporting %v\n recovery %v\n     want %v", n.Label, exporting, recovery, want)
					}
				}
				if got := client.Engine().GC().Snapshot().ProxyInsExported; got != 0 {
					return fmt.Errorf("client exported %d proxy-ins describing replicas", got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
