#!/usr/bin/env bash
# Builds netmaster-serve and the benchmark from this checkout, then runs
# one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload device-sync --seed 1 --seconds 20 --trace 0
#
# Everything it builds, and every file a run writes, lands under
# .bench_build/ in the checkout (Go build cache and temporary files
# included).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/netmaster-serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a netmaster checkout" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0

go build -o "$out/netmaster-serve" ./cmd/netmaster-serve
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -serve "$out/netmaster-serve" -work "$out/work" "$@"
