#!/bin/sh
# Build safeflow and the e2e benchmark from this checkout, then run the
# benchmark with every argument passed through, e.g.
#   sh bench/e2e/run.sh --workload synth384 --seed 1 --seconds 10 --trace 0
#
# The benchmark keeps its inputs and caches under /dev/shm, and refuses a
# scratch directory that is not on tmpfs.  Where a user+mount namespace
# can be made, a private tmpfs is mounted over /dev/shm for it, so nothing
# is written outside the checkout and the scratch files vanish with the
# benchmark.  Otherwise the host's /dev/shm is used.
set -eu

if [ ! -f dune-project ] || [ ! -d lib/safeflow ] || [ ! -d bin ]; then
  echo "run.sh: run from the root of a safeflow checkout" >&2
  exit 2
fi

dune build --root . bin/safeflow_cli.exe bench/e2e/e2e.exe bench/e2e/spawn.exe >&2

set -- ./_build/default/bench/e2e/e2e.exe --cli ./_build/default/bin/safeflow_cli.exe "$@"

if unshare -rm true 2>/dev/null; then
  exec unshare -rm sh -c '
    mount -t tmpfs -o size=1g e2e /dev/shm ||
      echo "run.sh: no private tmpfs, using the host /dev/shm" >&2
    exec "$@"' sh "$@"
fi
echo "run.sh: no user namespace, using the host /dev/shm" >&2
exec "$@"
