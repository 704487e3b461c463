#!/bin/sh
# Usage: expect_stdout.sh STATUS PATTERN CMD [ARG...]
# Runs CMD with its stderr discarded.  Passes when CMD exits with STATUS
# and a line of its stdout matches the grep pattern PATTERN.
want=$1
pattern=$2
shift 2
out=$("$@" 2>/dev/null)
status=$?
if [ "$status" -ne "$want" ]; then
  echo "expected exit $want, got $status: $*" >&2
  exit 1
fi
if ! printf '%s\n' "$out" | grep -q -- "$pattern"; then
  echo "no line of the stdout of '$*' matches '$pattern':" >&2
  printf '%s\n' "$out" >&2
  exit 1
fi
