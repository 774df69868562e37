#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the Go
# toolchain writes (build cache, module cache, telemetry counters) is
# pointed there too, so nothing is written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
(cd "$here" && GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local go build -o "$build/hyaline-benchmark" .) >&2
exec "$build/hyaline-benchmark" "$@"
