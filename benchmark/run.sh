#!/bin/sh
# Entry point named by BENCHMARK.json, run from the repository root:
# builds the rig into .bench_build/ and runs it from this directory,
# where it keeps out/ and results/. Everything the go tool reads or
# writes is pointed inside the checkout: build cache, temporary files,
# GOPATH, and no user-level go environment file. VCS stamping is off,
# so a repository around the checkout is never asked about its state.
set -e
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/benchmark" .
cd benchmark
exec "$build/benchmark" "$@"
