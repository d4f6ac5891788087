#!/usr/bin/env bash
# Builds the benchmark runner from source into .bench_build/ at the root of
# the checkout and executes it with the arguments given. Everything the Go
# command writes — build cache, module cache, temporary files, its own
# per-user state — is pointed there too, so nothing outside the checkout is
# written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
(
  cd "$root/bench"
  export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
  export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
  export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
  go build -buildvcs=false -o "$build/bench" .
)
cd "$root"
exec "$build/bench" "$@"
