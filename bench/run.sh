#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build writes stays inside the checkout: the
# binary, Go's build cache, its temporary files and its configuration
# directory go to .bench_build/, which .gitignore names.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off \
	go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
