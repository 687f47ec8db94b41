#!/usr/bin/env bash
# Builds the benchmark and the dropscope binaries it drives from the
# checkout it is started in, then runs it. Start it from the repository
# root:
#
#	bash perfbench/run.sh --workload text --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays inside the checkout: compiler cache
# and binaries under .bench_build/, archives and spans under .bench_work/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
mkdir -p "$out/bin" "$out/tmp"

go build -o "$out/bin/" ./cmd/dropscope ./cmd/dropscoped >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
