#!/usr/bin/env bash
# Builds the ledger from source in the current checkout and runs it; every
# argument goes to ledger.exe. Run it from the repository root:
#
#   bash bench/ledger/run.sh --workload classic --seed 1 --seconds 20 --trace 0
#
# The build writes only under _build/ (dune's shared cache is off), and its
# messages go to stderr so the ledger's last stdout line stays its result.
set -euo pipefail
root="$(pwd)"
dune build --root "$root" --cache=disabled --display=quiet \
  ./bench/ledger/ledger.exe 1>&2
exec "$root/_build/default/bench/ledger/ledger.exe" "$@"
