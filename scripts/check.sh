#!/bin/sh
# check.sh — the full local gate: format, vet, race tests, fuzz seeds,
# a quick-scale experiment smoke run, and the examples.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" "$unformatted"
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go test -race"
go test -race ./...

echo "== allocation pins (not under -race: they skip there)"
# RecyclesStates: the cluster walk whose master captures into given-back
# buffers, alone and beside the master's own puts.
go test -count=1 -run 'Allocations?Pinned|RecyclesStates' ./...

echo "== benchmark module (own go.mod)"
go -C benchmark vet ./...
go -C benchmark test ./...

echo "== experiment smoke run"
go run ./cmd/obiwan-bench -exp all -quick -list 30 >/dev/null

echo "== examples"
for e in quickstart disconnected collabdoc worldgame adaptive; do
	echo "   examples/$e"
	go run "./examples/$e" >/dev/null
done

echo "== size"
sh scripts/loc.sh

echo "all checks passed"
