package rmi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"obiwan/internal/netsim"
)

// TestCallerOwnsBorrowedResults: a []byte result aliases the reply frame
// (wire.Decode borrows), and the frame is the caller's alone: four callers
// scribble over and append to every result they get while the others' calls
// are in flight on the same connection, and one reply is lost so that its
// call is answered a second time from the frame the server retains. Every
// echo, the replayed one included, must still come back intact. Run under
// -race: nothing else may read or write a frame once Recv returned it.
func TestCallerOwnsBorrowedResults(t *testing.T) {
	server, client, net := newRetryPair(t, fastRetry(6, 40*time.Millisecond))
	ref, err := server.Export(&calculator{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(ref, "Total"); err != nil { // warm the connection
		t.Fatal(err)
	}
	net.SetFaultSchedule("server", "client", netsim.NewFaultSchedule(
		netsim.FaultEvent{AtSend: 7, Action: netsim.ActDrop},
	))
	const callers, each = 4, 25
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := fmt.Sprintf("caller-%d", c)
			payload := bytes.Repeat([]byte{byte(c + 1)}, 3000+c*2500)
			for i := 0; i < each; i++ {
				res, err := client.Call(ref, "Echo", key, payload)
				if err != nil {
					t.Error(err)
					return
				}
				got := res[1].([]byte)
				if res[0] != key || !bytes.Equal(got, payload) {
					t.Errorf("caller %d call %d: reply is not its own echo", c, i)
					return
				}
				if cap(got) != len(got) {
					t.Errorf("result of %d bytes has capacity %d: an append would write into the frame", len(got), cap(got))
				}
				for j := range got {
					got[j] = 0xEE
				}
				_ = append(got, "and past its end"...)
			}
		}(c)
	}
	wg.Wait()
	cs, ss := client.Stats(), server.Stats()
	if cs.Retries == 0 || ss.DupsSuppressed == 0 {
		t.Fatalf("no call was retried and replayed: client %+v server %+v", cs, ss)
	}
	if ss.CallsServed != callers*each+1 {
		t.Fatalf("server executed %d calls, want %d", ss.CallsServed, callers*each+1)
	}
}
