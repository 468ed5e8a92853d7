#!/usr/bin/env bash
# Build the wall-clock benchmark from source and run one workload:
#
#   bash wallbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from anywhere; it works in the checkout that holds this script.
# Build output goes to stderr, so the last line on stdout is the result
# JSON.  Everything it writes stays under the checkout's _build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
export DUNE_CACHE=disabled
dune build --root . ./wallbench/wallbench.exe 1>&2
# The runtime-events ring (GC and allocation accounting) is a file; keep
# it inside the build tree, and size it (2^19 words per domain) so a chunk
# of worker-domain events fits between two reads.
mkdir -p _build/wallbench-events
export OCAML_RUNTIME_EVENTS_DIR="$root/_build/wallbench-events"
export OCAMLRUNPARAM="e=19${OCAMLRUNPARAM:+,$OCAMLRUNPARAM}"
exec ./_build/default/wallbench/wallbench.exe "$@"
