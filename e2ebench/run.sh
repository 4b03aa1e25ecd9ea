#!/usr/bin/env bash
# Build the end-to-end benchmark and the binaries it drives, then run it
# from the root of a source checkout:
#
#   bash e2ebench/run.sh --workload serve_capped --seed 1 --seconds 25 --trace 0
#
# All arguments go to e2e.exe (see e2ebench/README.md). Build output
# goes to stderr, so the last line of stdout is the JSON result.
set -u
cd "$(dirname "$0")/.." || exit 2
for f in dune-project bin/dune lib/serve/dune lib/fabric/dune; do
  if [ ! -f "$f" ]; then
    echo "e2ebench: $f is missing; run from the root of a full source checkout" >&2
    exit 2
  fi
done
dune build --root . ./e2ebench/e2e.exe ./bin/sfgen.exe ./bin/sfserve.exe ./bin/sffabric.exe 1>&2 ||
  exit 2
exec ./_build/default/e2ebench/e2e.exe "$@"
