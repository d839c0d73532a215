#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given flags,
# e.g. `bash bench/run.sh --workload train-search --seed 1 --seconds 20`.
# Every build product and Go cache lives under .bench_build/ at the repository
# root, so a run writes nothing outside the repository.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/bin"
# The go command's config directory also holds its telemetry counters.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" "$@"
