package rmi

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"obiwan/internal/netsim"
	"obiwan/internal/transport"
)

// TestConnectionMemosDecodeAtOnce: two clients call one server at once, so
// four readers (two client read loops, two server connections) each decode
// through their own string memo while the others do. Every echo comes back
// whole: strings that repeat on every frame, strings that never repeat
// (misses that make the memo forget) and strings past its bound. Run under
// -race: a memo touched by any goroutine but its reader's shows here.
func TestConnectionMemosDecodeAtOnce(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Profile{Name: "zero"})
	server, first := pairOn(t, net, "server", "client-a")
	second, err := newRuntime(net, "client-b")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	ref, err := server.Export(&calculator{})
	if err != nil {
		t.Fatal(err)
	}
	const callers, each = 3, 60
	var wg sync.WaitGroup
	for _, client := range []*Runtime{first, second} {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(client *Runtime, c int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					var s string
					switch i % 3 {
					case 0:
						s = "repeats on every frame"
					case 1:
						s = fmt.Sprintf("%s/%d/%d", client.Addr(), c, i)
					default:
						s = strings.Repeat(fmt.Sprint(i), 70)
					}
					res, err := client.Call(ref, "Echo", s, []byte(s))
					if err != nil {
						t.Error(err)
						return
					}
					if res[0] != s || string(res[1].([]byte)) != s {
						t.Errorf("%s caller %d call %d: echo %q, want %q", client.Addr(), c, i, res[0], s)
						return
					}
				}
			}(client, c)
		}
	}
	wg.Wait()
}
