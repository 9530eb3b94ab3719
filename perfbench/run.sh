#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload wan_closed --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, temporary files and trace files stay
# under .bench_build/ in the current directory; the network is never used.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off CGO_ENABLED=0
# The provenance line asks git for the commit; never look above the root.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
