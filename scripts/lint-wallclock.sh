#!/usr/bin/env bash
# lint-wallclock.sh — forbid new direct wall-clock reads and waits.
#
# Everything that runs inside a simulated scenario must take its time
# from netsim.Clock (or a telemetry hub's injected clock): a stray
# time.Now() or time.NewTicker silently breaks virtual-clock
# byte-determinism — the exact property the BENCH_* regression baselines
# and the swarm determinism tests gate on — or leaves a waiter sleeping in
# real time under a virtual clock. This lint greps non-comment code for
# time.Now, time.Since, time.Sleep, time.After and time.NewTicker outside
# the files that are legitimately wall-clocked and fails CI when a new
# one appears. Test files may time themselves, but a test that sleeps
# waits on the host instead of on a clock, so time.Sleep is checked in
# _test.go files too, against a second allowlist.
#
# Allowlisted (and why):
#   internal/netsim/              the clock abstraction itself (real clock, link pacing)
#   internal/telemetry/hub.go     real-clock fallback when no clock injected
#   internal/telemetry/trace.go   same fallback for the tracer
#   internal/telemetry/flight.go  same fallback for the flight recorder
#   internal/telemetry/runtimebridge.go  samples the Go runtime of this process on a
#                                 real ticker; deterministic harnesses switch it off
#   internal/wal/wal.go           fsync timing is real disk time by nature
#   internal/consistency/consistency.go  real-clock shim
#   internal/chaos/chaos.go       Within: a real-time watchdog, so a hung virtual
#                                 clock fails the test instead of hanging it
#   internal/swarm/swarm.go       wallStart, the wall-clock start of the speedup figure
#   internal/swarm/report.go      wall-clock speedup figure (since wallStart)
#   internal/bench/runners.go     Table 1's LMI loop: real CPU by design
#   cmd/obiwan-bench/main.go      per-experiment wall timing for the report
#   cmd/nameserver/main.go        a real daemon's periodic stats line
#   benchmark/                    the wall-clock benchmark measures real time
#   examples/                     examples run on the real clock
#   *_test.go                     tests may time themselves (but see below)
#
# Test files allowed to call time.Sleep (and why):
#   internal/rmi/rmi_test.go        a served method that blocks for real, to
#                                   trip a real-clock call timeout
#   internal/rmi/retry_test.go      the same, for per-try timeouts; and a
#                                   wait for duplicate handlers racing the reply
#   internal/rmi/pool_test.go       waits for real worker goroutines to retire
#   internal/transport/transport_test.go  lets a real Accept/Recv block before
#                                   a close, and a send land before a close
#   internal/transport/reconn_test.go     drains a send buffered before a real close
#
# New legitimate uses must be added here with a reason, so the exception
# stays reviewed instead of accumulating silently.
set -euo pipefail
cd "$(dirname "$0")/.."

allow='^\./internal/netsim/|^\./internal/telemetry/(hub|trace|flight|runtimebridge)\.go$|^\./internal/wal/wal\.go$|^\./internal/consistency/consistency\.go$|^\./internal/chaos/chaos\.go$|^\./internal/swarm/(swarm|report)\.go$|^\./internal/bench/runners\.go$|^\./cmd/(obiwan-bench|nameserver)/main\.go$|^\./benchmark/|^\./examples/|_test\.go$'

sleepAllow='^\./internal/rmi/(rmi|retry|pool)_test\.go$|^\./internal/transport/(transport|reconn)_test\.go$'

# scan pattern allow: grep -n output is file:line:text; filter on the file
# field alone, and drop lines that are only a comment.
scan() {
    grep -rnE "$1" --include='*.go' . |
        awk -F: -v allow="$2" '$1 !~ allow' | grep -Ev '^[^:]+:[0-9]+:[[:space:]]*//' || true
}
bad=$(scan 'time\.(Now|Since|Sleep|After|NewTicker)\b' "$allow"
    scan 'time\.Sleep\b' "$sleepAllow" | grep '_test\.go:' || true)

if [ -n "$bad" ]; then
    echo "lint-wallclock: direct wall-clock read or wait outside the allowlist:" >&2
    printf '%s\n' "$bad" >&2
    echo "Use the component's netsim.Clock (or injected hub clock); if this" >&2
    echo "file is legitimately wall-clocked, add it to scripts/lint-wallclock.sh" >&2
    echo "with a reason." >&2
    exit 1
fi
echo "lint-wallclock: ok"
