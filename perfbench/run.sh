#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build outputs, the Go build cache and span files stay in .bench_build/.
# Without the repository's sources next to perfbench/ the build fails and
# the script exits non-zero before printing any result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
