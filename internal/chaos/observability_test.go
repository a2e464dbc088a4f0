package chaos

import (
	"errors"
	"fmt"
	"testing"

	"obiwan/internal/admin"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/telemetry"
)

// TestWatchSurvivesPartitionWithoutDuplicates: a telemetry watcher polls
// a site across a link partition. Chunks fail during the outage, the
// cursor stays put, and after reconnection the stream resumes with every
// span delivered exactly once — the reconnect-safety contract of the
// cursor protocol.
func TestWatchSurvivesPartitionWithoutDuplicates(t *testing.T) {
	w := NewWorld(17)
	defer w.Close()
	master, err := w.NewSite("master")
	if err != nil {
		t.Fatal(err)
	}
	client, err := w.NewSite("client")
	if err != nil {
		t.Fatal(err)
	}
	watcher := client.Admin("master")

	seen := map[uint64]string{} // span id → name, to prove exactly-once
	deliver := func(chunk *admin.ScrapeChunk) error {
		for _, s := range chunk.Spans {
			if prev, dup := seen[s.SpanID]; dup {
				return fmt.Errorf("span %x (%s) delivered twice (first as %s)", s.SpanID, s.Name, prev)
			}
			seen[s.SpanID] = s.Name
		}
		return nil
	}

	master.Telemetry().StartRoot("before-outage").End()
	var cursor uint64
	err = w.Within(func() error {
		chunk, err := watcher.Scrape(cursor, 0, 0)
		if err != nil {
			return err
		}
		if len(chunk.Spans) != 1 || chunk.Spans[0].Name != "before-outage" {
			return fmt.Errorf("first chunk: %+v", chunk.Spans)
		}
		cursor = chunk.NextCursor
		return deliver(chunk)
	})
	if err != nil {
		t.Fatal(err)
	}

	// Partition. The poll fails; crucially the cursor does not advance.
	w.Net.Disconnect("client", "master")
	master.Telemetry().StartRoot("during-outage").End()
	err = w.Within(func() error {
		_, err := watcher.Scrape(cursor, 0, 0)
		return err
	})
	if err == nil {
		t.Fatal("watch across a partition must fail")
	}

	// Heal and resume from the same cursor: the span finished during the
	// outage arrives now, once; nothing is re-delivered.
	w.Net.Reconnect("client", "master")
	master.Telemetry().StartRoot("after-outage").End()
	err = w.Within(func() error {
		chunk, err := watcher.Scrape(cursor, 0, 0)
		if err != nil {
			return err
		}
		if len(chunk.Spans) != 2 {
			return fmt.Errorf("resumed chunk: %+v", chunk.Spans)
		}
		if chunk.Spans[0].Name != "during-outage" || chunk.Spans[1].Name != "after-outage" {
			return fmt.Errorf("resumed order: %+v", chunk.Spans)
		}
		if chunk.Missed != 0 {
			return fmt.Errorf("missed=%d across a short outage", chunk.Missed)
		}
		cursor = chunk.NextCursor
		return deliver(chunk)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("delivered %d unique spans, want 3: %v", len(seen), seen)
	}
}

// TestFlightDumpCapturesStrandedDemand: the master dies mid-session; the
// client's next demand exhausts its retries into ErrUnavailable, and the
// automatically stored flight dump carries the stranded demand's causal
// trail — its retry events and the terminal unavailable event, tied to
// the failing fault span's trace.
func TestFlightDumpCapturesStrandedDemand(t *testing.T) {
	w := NewWorld(23)
	defer w.Close()
	master, err := w.NewSite("master")
	if err != nil {
		t.Fatal(err)
	}
	client, err := w.NewSite("client")
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := BuildChain(master, "doc", 2)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := master.Export(nodes[0])
	if err != nil {
		t.Fatal(err)
	}

	// A healthy demand first, so the recorder holds normal protocol
	// events around the failure.
	ref := client.Engine().RefFromDescriptor(desc, spec1())
	root, err := objmodel.Deref[*Node](ref)
	if err != nil {
		t.Fatal(err)
	}

	master.Kill()

	// The follow-on demand strands: retries exhaust into ErrUnavailable.
	session := client.Telemetry().StartRoot("session")
	err = w.Within(func() error {
		_, derr := client.Engine().Replicate(session.Context(), root.Kids[0], spec1())
		return derr
	})
	session.End()
	if !errors.Is(err, replication.ErrUnavailable) {
		t.Fatalf("stranded demand: want ErrUnavailable, got %v", err)
	}

	dump, ok := client.Telemetry().Flight().LastDump()
	if !ok {
		t.Fatal("no flight dump after ErrUnavailable exhaustion")
	}
	if dump.Reason != "unavailable: demand" {
		t.Fatalf("dump reason %q", dump.Reason)
	}

	var unavailable *telemetry.FlightEvent
	retries := 0
	for i := range dump.Events {
		e := &dump.Events[i]
		switch e.Kind {
		case "repl.unavailable":
			unavailable = e
		case "rmi.retry":
			if e.TraceID == session.Context().TraceID {
				retries++
			}
		}
	}
	if unavailable == nil {
		t.Fatalf("dump lacks the terminal unavailable event:\n%s", dump.Format())
	}
	if unavailable.TraceID != session.Context().TraceID {
		t.Fatalf("unavailable event outside the session trace: %+v", unavailable)
	}
	if unavailable.SpanID == 0 || !dump.Contains(unavailable.SpanID) {
		t.Fatalf("dump does not carry the failing call's span id: %+v", unavailable)
	}
	if retries == 0 {
		t.Fatalf("dump lacks the stranded demand's retry events:\n%s", dump.Format())
	}
	// The failing span id resolves to the demand's fault span in the
	// client's own tracer — dump and trace tell one story.
	found := false
	for _, sp := range client.Telemetry().Spans(0) {
		if sp.SpanID == unavailable.SpanID {
			found = true
			if sp.Name != "fault" || sp.Err == "" {
				t.Fatalf("failing span: %+v", sp)
			}
		}
	}
	if !found {
		t.Fatal("failing span id not present in the client's trace ring")
	}
	// The healthy demand's protocol events are in the same dump: the
	// recorder preserves context before the failure, not just the failure.
	if !hasKind(dump, "repl.fault-resolved") {
		t.Fatalf("dump lacks pre-failure protocol events:\n%s", dump.Format())
	}
}

func hasKind(d *telemetry.FlightDump, kind string) bool {
	for _, e := range d.Events {
		if e.Kind == kind {
			return true
		}
	}
	return false
}
