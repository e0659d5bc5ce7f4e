#!/usr/bin/env bash
# Builds oipa-gen and oipa-serve from the repository's source, and the
# benchmark's driver and traced replay from perfbench/, into
# .bench_build/bin, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload warm_mix --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every file the build and the runs
# write stays under .bench_build.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/oipa-serve ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench/run.sh: run from the root of an oipa checkout" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
go build -o "$out/bin/" ./cmd/oipa-gen ./cmd/oipa-serve >&2
(cd perfbench && go build -o "$out/bin/" ./driver ./traced) >&2
exec "$out/bin/driver" -bin "$out/bin" -work "$out/work" "$@"
