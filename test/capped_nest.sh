#!/bin/sh
# Usage: capped_nest.sh KB CLI FILE
# Analyzes FILE with CLI under an address-space cap of KB kilobytes, set
# in this shell only.  Passes when the run exits 2 with exactly one
# W-UNMONITORED-READ warning and two C-CONTROL-DEP findings (the
# Shapes programs' unmonitored read and their two sinks).
kb=$1
cli=$2
file=$3
out=$(ulimit -v "$kb" && "$cli" analyze "$file" 2>&1)
status=$?
warnings=$(printf '%s\n' "$out" | grep -c '\[W-UNMONITORED-READ\]')
control=$(printf '%s\n' "$out" | grep -c '\[C-CONTROL-DEP\]')
if [ "$status" -ne 2 ] || [ "$warnings" -ne 1 ] || [ "$control" -ne 2 ]; then
  echo "$file under ulimit -v $kb: exit $status, $warnings warnings, $control control-only findings (want 2, 1, 2)" >&2
  printf '%s\n' "$out" | tail -20 >&2
  exit 1
fi
