#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it:
#
#   bash perfbench/run.sh --workload device-window --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, stores, span files) stays under .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/main.go ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/home" "${build}/tmp"
# Keep the toolchain's caches, temporary files and telemetry inside the
# checkout, and never let it fetch a different toolchain.
export HOME="${build}/home"
export XDG_CONFIG_HOME="${build}/home/.config"
export XDG_CACHE_HOME="${build}/home/.cache"
export GOCACHE="${build}/go-cache"
export GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export GOTOOLCHAIN=local

"${GO:-go}" build -o "${build}/perfbench" ./perfbench >&2
exec "${build}/perfbench" --work "${build}" "$@"
