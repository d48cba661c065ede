#!/bin/sh
# Build rxbench from the sources of this checkout, then run it with the
# given arguments (see bench/rx/README.md).  Run from the repository
# root, e.g.:
#   sh bench/rx/run.sh --workload oltp --seed 7 --seconds 10 --trace 0
# The build goes to $CARGO_TARGET_DIR when set, else to _build.
set -e
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "rxbench: run from the root of a tcpdemux checkout" >&2
  exit 2
fi
build="${CARGO_TARGET_DIR:-_build}"
# No shared cache: the build reads and writes only inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --build-dir "$build" --display quiet bench/rx/rxbench.exe >&2
exec "$build/default/bench/rx/rxbench.exe" "$@"
