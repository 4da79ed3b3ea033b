#!/usr/bin/env bash
# Builds fdtbench from this checkout and runs it with the given
# arguments (see README.md next to this script). The binaries and the
# Go build cache go to .bench_build/ at the repository root, so a run
# writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
(cd "$root/cmd/fdtbench" && go build -o "$out/bin/fdtbench" .)
cd "$root"
exec "$out/bin/fdtbench" "$@"
