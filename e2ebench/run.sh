#!/usr/bin/env bash
# Builds the parahash CLI and the e2ebench driver from this checkout's
# source into .bench_build/, then runs one benchmark workload. Run it from
# the repository root, for example:
#
#   bash e2ebench/run.sh --workload dup-heavy --seed 1 --seconds 10 --trace 0
#
# The Go build cache and temporary files stay under .bench_build/ too, and
# nothing is downloaded.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/parahash" ./cmd/parahash >&2
(cd e2ebench && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" -parahash "$out/bin/parahash" -work "$out/work" "$@"
