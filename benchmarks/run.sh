#!/usr/bin/env bash
# Builds hostbench from source and runs it from the root of the checkout.
# Everything the build leaves behind (Go's build cache, its temporary
# files, the binary) goes under .bench_build in the checkout, next to the
# scratch files hostbench itself writes there, so a run touches nothing
# outside the checkout. Arguments are passed through to hostbench.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=auto
(cd "$here" && go build -o "$out/hostbench" ./hostbench)
cd "$root"
exec "$out/hostbench" "$@"
