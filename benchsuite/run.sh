#!/usr/bin/env bash
# The benchmark's entry point: builds the suite and the autocc CLI from
# source in this checkout, then runs the suite with the arguments given.
#   bash benchsuite/run.sh --workload cex_sweep --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# A shell without the OCaml switch on its PATH: load it from opam.
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
# Keep the build inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchsuite/suite.exe ./bin/autocc_cli.exe 1>&2
exec ./_build/default/benchsuite/suite.exe "$@"
