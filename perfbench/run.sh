#!/bin/sh
# Build the benchmark from the checkout this directory sits in, then run
# it from the checkout's root with the given arguments, e.g.
#   sh perfbench/run.sh --workload price24k --seed 7 --seconds 20 --trace 0
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/dune-project" ] || [ ! -d "$root/lib" ]; then
  echo "perfbench: no repository sources around $root/perfbench" >&2
  exit 2
fi
cd "$root"
dune build --root "$root" ./perfbench/e2e.exe
exec "$root/_build/default/perfbench/e2e.exe" "$@"
