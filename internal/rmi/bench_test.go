package rmi

import (
	"fmt"
	"sync"
	"testing"

	"obiwan/internal/netsim"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// benchPair builds two connected runtimes over a zero-latency link, so
// the numbers measure the RMI machinery itself (marshalling, dispatch,
// multiplexing) rather than simulated propagation.
func benchPair(tb testing.TB) (*Runtime, *Runtime) {
	tb.Helper()
	return pairOn(tb, transport.NewMemNetwork(netsim.Profile{Name: "zero"}), "server", "client")
}

// tcpPair is benchPair over TCP loopback, on kernel-chosen ports.
func tcpPair(tb testing.TB) (*Runtime, *Runtime) {
	tb.Helper()
	return pairOn(tb, transport.NewTCPNetwork(), "127.0.0.1:0", "127.0.0.1:0")
}

func pairOn(tb testing.TB, net transport.Network, serverAddr, clientAddr transport.Addr) (*Runtime, *Runtime) {
	tb.Helper()
	server, err := newRuntime(net, serverAddr)
	if err != nil {
		tb.Fatal(err)
	}
	client, err := newRuntime(net, clientAddr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return server, client
}

func BenchmarkCallNull(b *testing.B) {
	server, client := benchPair(b)
	benchCallNull(b, server, client)
}

// BenchmarkCallNullTCP is the same call over TCP loopback: the mem figure
// plus two framed writes, two framed reads and the kernel's socket path.
func BenchmarkCallNullTCP(b *testing.B) {
	server, client := tcpPair(b)
	benchCallNull(b, server, client)
}

func benchCallNull(b *testing.B, server, client *Runtime) {
	ref, err := server.Export(&calculator{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := client.Call(ref, "Total"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(ref, "Total"); err != nil {
			b.Fatal(err)
		}
	}
}

// hubPair is benchPair with a telemetry hub on each side; it returns the
// client's.
func hubPair(tb testing.TB) (*Runtime, *Runtime, *telemetry.Hub) {
	tb.Helper()
	net := transport.NewMemNetwork(netsim.Profile{Name: "zero"})
	serverHub := telemetry.NewHub("server")
	clientHub := telemetry.NewHub("client")
	server, err := newRuntime(net, "server", WithTelemetry(serverHub))
	if err != nil {
		tb.Fatal(err)
	}
	client, err := newRuntime(net, "client", WithTelemetry(clientHub))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return server, client, clientHub
}

// BenchmarkCallTelemetry compares the per-call cost of the three
// telemetry states. "off" must match BenchmarkCallNull (the nil-check
// fast path is the disabled price); "on-untraced" is a hub-bearing
// runtime serving untraced calls (counters only, no spans); "on-traced"
// pays for a client span, wire context, and a server span.
func BenchmarkCallTelemetry(b *testing.B) {
	run := func(b *testing.B, server, client *Runtime, sc telemetry.SpanContext) {
		b.Helper()
		ref, err := server.Export(&calculator{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.CallWithin(sc, ref, 0, "Total"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.CallWithin(sc, ref, 0, "Total"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		server, client := benchPair(b)
		run(b, server, client, telemetry.SpanContext{})
	})
	b.Run("on-untraced", func(b *testing.B) {
		server, client, _ := hubPair(b)
		run(b, server, client, telemetry.SpanContext{})
	})
	b.Run("on-traced", func(b *testing.B) {
		server, client, hub := hubPair(b)
		root := hub.StartRoot("bench")
		defer root.End()
		run(b, server, client, root.Context())
	})
}

// BenchmarkCallProfile prices the observability additions riding on the
// call path: the flight-recorder hook in doCall and the profiler-bearing
// hub. "off" runs a hub-less pair — it must match BenchmarkCallNull
// alloc-for-alloc, because the disabled state is a nil check, nothing
// more. "on" runs hub-bearing runtimes (profiler and flight recorder
// live) serving untraced calls: the steady-state cost of keeping the
// recorders armed when nothing fails.
func BenchmarkCallProfile(b *testing.B) {
	run := func(b *testing.B, server, client *Runtime) {
		b.Helper()
		ref, err := server.Export(&calculator{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.Call(ref, "Total"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Call(ref, "Total"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		server, client := benchPair(b)
		if client.flight != nil {
			b.Fatal("hub-less runtime armed a flight recorder")
		}
		run(b, server, client)
	})
	b.Run("on", func(b *testing.B) {
		net := transport.NewMemNetwork(netsim.Profile{Name: "zero"})
		server, err := newRuntime(net, "server", WithTelemetry(telemetry.NewHub("server")))
		if err != nil {
			b.Fatal(err)
		}
		client, err := newRuntime(net, "client", WithTelemetry(telemetry.NewHub("client")))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			_ = client.Close()
			_ = server.Close()
		})
		if client.flight == nil {
			b.Fatal("hub-bearing runtime left the flight recorder nil")
		}
		run(b, server, client)
	})
}

// BenchmarkCallAttribution prices the phase-annotation layer added for
// critical-path attribution. "off" runs a hub-less pair and must match
// BenchmarkCallNull alloc-for-alloc — every phase measurement is behind
// the same nil checks as the rest of the telemetry surface, so the
// disabled path gains no clock reads and no allocations. "on-traced"
// runs fully traced calls: client span with net/backoff phases and a
// latency exemplar, server span with queue/serve phases — the armed
// price of knowing where the time went.
func BenchmarkCallAttribution(b *testing.B) {
	run := func(b *testing.B, server, client *Runtime, sc telemetry.SpanContext) {
		b.Helper()
		ref, err := server.Export(&calculator{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.CallWithin(sc, ref, 0, "Total"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.CallWithin(sc, ref, 0, "Total"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		server, client := benchPair(b)
		run(b, server, client, telemetry.SpanContext{})
	})
	b.Run("on-traced", func(b *testing.B) {
		net := transport.NewMemNetwork(netsim.Profile{Name: "zero"})
		server, err := newRuntime(net, "server", WithTelemetry(telemetry.NewHub("server")))
		if err != nil {
			b.Fatal(err)
		}
		hub := telemetry.NewHub("client")
		client, err := newRuntime(net, "client", WithTelemetry(hub))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			_ = client.Close()
			_ = server.Close()
		})
		root := hub.StartRoot("bench")
		defer root.End()
		run(b, server, client, root.Context())
	})
}

func BenchmarkCallWithBytes(b *testing.B) {
	server, client := benchPair(b)
	ref, err := server.Export(&calculator{})
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("payload=%dB", size), func(b *testing.B) {
			payload := make([]byte, size)
			b.SetBytes(int64(size) * 2) // echoed both ways
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := client.Call(ref, "Echo", "k", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCallConcurrent(b *testing.B) {
	server, client := benchPair(b)
	benchCallConcurrent(b, server, client)
}

// BenchmarkCallConcurrentTCP is the same eight callers over TCP loopback,
// where the frames they have waiting go out together, one writev a batch.
func BenchmarkCallConcurrentTCP(b *testing.B) {
	server, client := tcpPair(b)
	benchCallConcurrent(b, server, client)
}

func benchCallConcurrent(b *testing.B, server, client *Runtime) {
	ref, err := server.Export(&calculator{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := client.Call(ref, "Total"); err != nil {
		b.Fatal(err)
	}
	const workers = 8
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := client.Call(ref, "Total"); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
