#!/usr/bin/env bash
# Builds ssserve, ssgen and the benchmark from source into .bench_build
# under the current directory (the repository root), then runs it with
# the arguments given, for example:
#
#   bash servebench/run.sh --workload narrow --seed 1 --seconds 10 --trace 0
#
# The Go build cache and temporary files stay under .bench_build too,
# so a run reads and writes nothing outside the checkout.  The binaries
# are rebuilt only when a Go source file or go.mod changed since the
# last build.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$build/bin" "$GOTMPDIR"
stamp="$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print0 |
	sort -z | xargs -0 sha256sum | sha256sum)"
if [ "$stamp" != "$(cat "$build/bin/stamp" 2>/dev/null)" ]; then
	rm -f "$build/bin/stamp"
	go build -o "$build/bin/" ./cmd/ssserve ./cmd/ssgen
	go -C servebench build -o "$build/bin/servebench" .
	printf '%s\n' "$stamp" >"$build/bin/stamp"
fi
exec "$build/bin/servebench" -root "$root" -bin "$build/bin" "$@"
