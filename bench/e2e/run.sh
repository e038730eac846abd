#!/bin/sh
# Entry point named by BENCHMARK.json.  Run from the root of an ace
# checkout: builds the tools and the harness from source, then runs the
# harness with the given arguments, e.g.
#   sh bench/e2e/run.sh --workload lvs --seed 3 --seconds 16 --trace 0
# Build output goes to stderr, so the harness's JSON result stays the last
# line of stdout.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "bench/e2e/run.sh: not the root of an ace checkout (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
dune build --root . ./bin/ace.exe ./bin/acelvs.exe ./bin/aced.exe \
  ./bin/hext_cli.exe ./bin/wlcmp.exe ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
