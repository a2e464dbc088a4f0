// Disconnected demonstrates the paper's mobility headline: "as long as
// objects needed by an application are colocated, there is no need to be
// connected to the network", and "users should be able to modify local
// replicas of global data".
//
// A field engineer's laptop replicates a work-order cluster from the
// office server over a wireless link, loses connectivity (the taxi, the
// tunnel, the roaming bill), keeps reading and editing the local replicas
// inside a transaction, and reconciles everything on reconnection —
// including a conflict another writer created in the meantime.
//
// Run with:
//
//	go run ./examples/disconnected
package main

import (
	"errors"
	"fmt"
	"log"

	"obiwan"
)

// WorkOrder is one job on the engineer's list.
type WorkOrder struct {
	Site   string
	Task   string
	Status string
	Next   *obiwan.Ref
}

// Describe renders the order.
func (w *WorkOrder) Describe() string {
	return fmt.Sprintf("%s: %s [%s]", w.Site, w.Task, w.Status)
}

// Complete marks the order done with a note.
func (w *WorkOrder) Complete(note string) { w.Status = "done: " + note }

func init() {
	obiwan.MustRegisterType("fieldwork.WorkOrder", (*WorkOrder)(nil))
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	network := obiwan.NewMemNetwork(obiwan.Wireless)
	// Pin the wireless loss to zero for a deterministic demo; the profile
	// otherwise drops ~1% of messages.
	reliable := obiwan.Wireless
	reliable.LossRate = 0
	network.SetProfile("office", "laptop", reliable)
	network.SetProfile("office", "ns", reliable)
	network.SetProfile("laptop", "ns", reliable)

	nsrt, err := obiwan.NewRuntime(network, "ns")
	if err != nil {
		return err
	}
	defer nsrt.Close()
	if _, _, err := obiwan.ServeNameServer(nsrt); err != nil {
		return err
	}

	// The office server masters the orders; first-writer-wins protects
	// against lost updates from concurrent editors.
	office, err := obiwan.NewSite("office", network,
		obiwan.WithNameServer("ns"),
		obiwan.WithPolicy(obiwan.FirstWriterWins{}))
	if err != nil {
		return err
	}
	defer office.Close()

	orders := []*WorkOrder{
		{Site: "plant-7", Task: "replace valve", Status: "open"},
		{Site: "plant-7", Task: "inspect pump", Status: "open"},
		{Site: "depot-2", Task: "calibrate sensor", Status: "open"},
	}
	for i := 0; i < len(orders)-1; i++ {
		ref, err := office.NewRef(orders[i+1])
		if err != nil {
			return err
		}
		orders[i].Next = ref
	}
	if err := office.Bind("orders/today", orders[0]); err != nil {
		return err
	}

	// The laptop replicates the whole list as one cluster before leaving:
	// one round trip on a thin link beats three.
	laptop, err := obiwan.NewSite("laptop", network, obiwan.WithNameServer("ns"))
	if err != nil {
		return err
	}
	defer laptop.Close()

	ref, err := laptop.LookupSpec("orders/today", obiwan.GetSpec{
		Mode: obiwan.Incremental, Batch: len(orders), Clustered: true,
	})
	if err != nil {
		return err
	}
	head, err := obiwan.Deref[*WorkOrder](ref)
	if err != nil {
		return err
	}
	fmt.Printf("laptop: replicated %d orders in %d round trip(s)\n",
		laptop.Heap().Len(), laptop.Runtime().Stats().CallsSent)

	// ——— Into the field: no connectivity. ———
	network.PartitionHost("laptop")
	fmt.Println("laptop: disconnected")

	// Reading keeps working: the objects are colocated.
	for cur := head; cur != nil; {
		fmt.Println("  ", cur.Describe())
		if cur.Next == nil {
			break
		}
		next, err := obiwan.Deref[*WorkOrder](cur.Next)
		if err != nil {
			return err
		}
		cur = next
	}

	// Editing keeps working too, inside a relaxed transaction.
	mgr := laptop.TxnManager()
	tx := mgr.Begin()
	if err := tx.Write(head); err != nil {
		return err
	}
	head.Complete("new valve fitted, tested at 6 bar")
	if err := tx.Commit(); err != nil {
		return err
	}
	fmt.Printf("laptop: committed offline (txn status: %v, pending: %d)\n",
		tx.Status(), len(mgr.Pending()))

	// Meanwhile, back at the office, a colleague closes another order in
	// the same cluster. The cluster is the unit of update ("each object
	// can not be individually updated", §4.3), so the engineer's pending
	// cluster put is now stale.
	orders[2].Complete("done by night shift")
	if err := office.MarkUpdated(orders[2]); err != nil {
		return err
	}

	// ——— Back in coverage. ———
	network.HealHost("laptop")
	fmt.Println("laptop: reconnected")

	n, err := mgr.FlushPending()
	fmt.Printf("laptop: flush committed %d transaction(s)\n", n)
	if err != nil {
		if !errors.Is(err, obiwan.ErrTxnConflict) {
			return err
		}
		// The first-writer-wins policy rejected the stale cluster and the
		// transaction rolled back locally. Standard optimistic recovery:
		// refresh, redo the edit, commit again.
		fmt.Println("laptop: conflict — colleague updated the cluster first; refreshing and retrying")
		if err := laptop.Refresh(head); err != nil {
			return err
		}
		retry := mgr.Begin()
		if err := retry.Write(head); err != nil {
			return err
		}
		head.Complete("new valve fitted, tested at 6 bar")
		if err := retry.Commit(); err != nil {
			return err
		}
		fmt.Printf("laptop: retry committed (txn status: %v)\n", retry.Status())
	}
	fmt.Printf("office: order[0] now: %s\n", orders[0].Describe())
	fmt.Printf("office: order[2] now: %s\n", orders[2].Describe())

	// The laptop refreshes to converge fully with the master state.
	if err := laptop.Refresh(head); err != nil {
		return err
	}
	fmt.Printf("laptop: order[0] after refresh: %s\n", head.Describe())
	return nil
}
