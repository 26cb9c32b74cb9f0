#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload sim-mem --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1 -out base.json        # every workload
#   bash bench/run.sh compare base1.json new1.json ...
#
# Everything the build and the runs write (Go build cache, temporary files,
# binary, scratch data, span files) stays under .bench_build/ at the
# repository root. Outside a full checkout the build fails, so the script
# exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export TMPDIR="$build/tmp"

(cd "$root/bench" && go build -o "$build/berti-bench" .)
cd "$root"
exec "$build/berti-bench" -workdir "$build/work" "$@"
