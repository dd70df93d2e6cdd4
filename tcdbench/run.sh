#!/bin/sh
# Builds the benchmark and the tcdsimd daemon from the checkout's sources
# into .bench_build, then runs the benchmark with the given arguments
# from the root of the checkout, e.g.
#
#	bash tcdbench/run.sh --workload unit --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind (Go build cache, module cache, the
# go command's own config and telemetry files) stays under .bench_build.
set -eu

cd "$(dirname "$0")/.."
out="$(pwd)/.bench_build"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOMODCACHE="${out}/gopath/pkg/mod" \
	XDG_CONFIG_HOME="${out}/config" GOTOOLCHAIN=local GOPROXY=off
mkdir -p "${out}/bin"
(cd tcdbench && go build -o "${out}/bin/tcdbench" .)
go build -o "${out}/bin/tcdsimd" ./cmd/tcdsimd
exec "${out}/bin/tcdbench" --tcdsimd "${out}/bin/tcdsimd" "$@"
