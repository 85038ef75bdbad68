#!/usr/bin/env bash
# Build `loseq` and the benchmark from this checkout, then run the
# benchmark.  Usage, from the root of the checkout:
#
#   bash servebench/run.sh --workload d64-inorder --seed 1 --seconds 10 --trace 0
#
# Build logs go to stderr; the last line of stdout is the result JSON.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/loseq_cli.ml ] || [ ! -d lib ]; then
  echo "servebench: run from the root of a loseq checkout (no dune-project/bin/lib here)" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

export DUNE_CACHE=disabled
build=.bench_build
dune build --root . --build-dir "$build" --profile release \
  ./bin/loseq_cli.exe ./servebench/servebench.exe 1>&2

exec "$build/default/servebench/servebench.exe" \
  --loseq "$build/default/bin/loseq_cli.exe" \
  --work "$build/servebench" "$@"
