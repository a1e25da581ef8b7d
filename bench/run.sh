#!/usr/bin/env bash
# Builds the benchmark and the rsafactor server from this checkout, then
# runs the benchmark with the given arguments. Run it from the repository
# root. The Go build cache, the binaries and the generated corpora all go
# to .bench_build/ under the root, and run outputs to bench/out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$build/bin"
go -C bench build -o "$build/bin/bench" .
go build -o "$build/bin/rsafactor" ./cmd/rsafactor
exec "$build/bin/bench" -root "$root" -rsafactor "$build/bin/rsafactor" "$@"
