// Collabdoc plays out the paper's motivating scenario (§1): cooperative
// work within a virtual organization — here, three sites of a distributed
// team co-editing a specification document over a wide-area network.
//
//   - The hub site masters the document (a chain of sections).
//   - Two editors replicate it: one section-by-section as she reads, one
//     as a single cluster before a flight.
//   - Edits go back with first-writer-wins; a losing editor refreshes and
//     retries.
//   - A read-only watcher subscribes to update dissemination and sees
//     every committed revision pushed to it.
//   - All access goes through the typed proxies obicomp generated for the
//     docmodel package (see docmodel/obiwan_gen.go).
//
// Run with:
//
//	go run ./examples/collabdoc
package main

import (
	"errors"
	"fmt"
	"log"

	"obiwan"
	"obiwan/examples/collabdoc/docmodel"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	network := obiwan.NewMemNetwork(obiwan.WAN)

	nsrt, err := obiwan.NewRuntime(network, "ns")
	if err != nil {
		return err
	}
	defer nsrt.Close()
	if _, _, err := obiwan.ServeNameServer(nsrt); err != nil {
		return err
	}

	hub, err := obiwan.NewSite("hub", network,
		obiwan.WithNameServer("ns"),
		obiwan.WithPolicy(obiwan.FirstWriterWins{}))
	if err != nil {
		return err
	}
	defer hub.Close()

	// Build the master document at the hub.
	doc := &docmodel.Document{Title: "OBIWAN Spec", Revision: 1}
	intro := &docmodel.Section{Name: "Introduction", Text: "Sharing is needed."}
	arch := &docmodel.Section{Name: "Architecture", Text: "Proxies, in and out."}
	eval := &docmodel.Section{Name: "Evaluation", Text: "Numbers pending."}
	if doc.First, err = hub.NewRef(intro); err != nil {
		return err
	}
	if intro.Next, err = hub.NewRef(arch); err != nil {
		return err
	}
	if arch.Next, err = hub.NewRef(eval); err != nil {
		return err
	}
	if err := hub.Bind("docs/spec", doc); err != nil {
		return err
	}
	fmt.Println("hub: bound docs/spec with 3 sections")

	// A watcher subscribes to dissemination: committed updates are pushed.
	watcher, err := obiwan.NewSite("watcher", network, obiwan.WithNameServer("ns"))
	if err != nil {
		return err
	}
	defer watcher.Close()
	hub.EnableDissemination().Subscribe("watcher")

	// The watcher replicates the document once; dissemination keeps it hot.
	wdoc, err := docmodel.LookupDocument(watcher, "docs/spec")
	if err != nil {
		return err
	}
	fmt.Printf("watcher: sees %q\n", wdoc.Heading())

	// Editor Alice walks the document incrementally through typed proxies.
	alice, err := obiwan.NewSite("alice", network, obiwan.WithNameServer("ns"))
	if err != nil {
		return err
	}
	defer alice.Close()
	adoc, err := docmodel.LookupDocument(alice, "docs/spec")
	if err != nil {
		return err
	}
	fmt.Printf("alice: opened %q\n", adoc.Heading())
	aDoc, err := obiwan.Deref[*docmodel.Document](adoc.Ref())
	if err != nil {
		return err
	}
	aIntro := docmodel.NewSectionProxy(aDoc.First)
	fmt.Printf("alice: reads —\n%s\n", aIntro.Render())

	// Editor Bob clusters the whole document before going offline.
	bob, err := obiwan.NewSite("bob", network,
		obiwan.WithNameServer("ns"),
		obiwan.WithDefaultSpec(obiwan.GetSpec{
			Mode: obiwan.Incremental, Batch: 4, Clustered: true,
		}))
	if err != nil {
		return err
	}
	defer bob.Close()
	bdoc, err := docmodel.LookupDocument(bob, "docs/spec")
	if err != nil {
		return err
	}
	if _, err := bdoc.Ref().Resolve(); err != nil {
		return err
	}
	fmt.Printf("bob: clustered the whole document in %d round trip(s)\n",
		bob.Runtime().Stats().CallsSent-1) // minus the name-server lookup

	// Alice commits an edit to the introduction.
	aSec, err := obiwan.Deref[*docmodel.Section](aDoc.First)
	if err != nil {
		return err
	}
	aSec.Append("Mobility makes it hard.")
	if err := alice.Put(aSec); err != nil {
		return err
	}
	fmt.Println("alice: committed an edit to Introduction")

	// Bob edits the same section from his (now stale) cluster and loses.
	bDoc, err := obiwan.Deref[*docmodel.Document](bdoc.Ref())
	if err != nil {
		return err
	}
	bSec, err := obiwan.Deref[*docmodel.Section](bDoc.First)
	if err != nil {
		return err
	}
	bSec.Append("Also, networks are slow.")
	err = bob.PutCluster(bSec)
	var re *obiwan.RemoteError
	if errors.As(err, &re) && re.IsApp() {
		fmt.Println("bob: conflict (alice was first) — refreshing and retrying")
		if err := bob.Refresh(bSec); err != nil {
			return err
		}
		bSec.Append("Also, networks are slow.")
		if err := bob.PutCluster(bSec); err != nil {
			return err
		}
	} else if err != nil {
		return err
	}
	fmt.Println("bob: committed after retry")

	// The hub's master now carries both lines; the watcher was pushed
	// every committed revision by the dissemination hook.
	fmt.Printf("hub: Introduction is now —\n%s\n", intro.Render())
	wIntroDoc, err := obiwan.Deref[*docmodel.Document](wdoc.Ref())
	if err != nil {
		return err
	}
	wIntro := docmodel.NewSectionProxy(wIntroDoc.First)
	fmt.Printf("watcher: Introduction (pushed, %d words) —\n%s\n",
		wIntro.WordCount(), wIntro.Render())
	return nil
}
