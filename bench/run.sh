#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the build writes (Go build cache, temporary files, binary)
# and everything a run writes (service state dirs) stays under
# .bench_build/ in the checkout; traces go to bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOENV=off \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/homunculus-bench" .)
cd "$root"
exec "$build/homunculus-bench" "$@"
