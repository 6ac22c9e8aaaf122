#!/usr/bin/env bash
# Build the benchmark and terra_serve from source, then run the benchmark
# with the given arguments.  Run it from the root of a checkout:
#
#   bash bench/perf/run.sh --workload dgemm --seed 1 --seconds 18 --trace 0
#
# Build output goes to stderr, so the last line on stdout stays the
# benchmark's JSON result.  Dune's shared cache is off so that the run
# reads and writes only inside the checkout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: not the root of a checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . bench/perf/perf.exe bin/terra_serve.exe >&2
exec _build/default/bench/perf/perf.exe "$@"
