#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash perfbench/run.sh --workload audit-bare --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, and the run's
# journals and service data (removed when the run ends).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

(
	cd "$root/perfbench"
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off \
		go build -o "$out/perfbench" .
)

cd "$root"
exec "$out/perfbench" -workdir "$out/work" "$@"
