#!/bin/sh
# Usage: expect_exit.sh STATUS TEXT CMD [ARG...]
# Runs CMD with its stdout discarded.  Passes when CMD exits with STATUS
# and its stderr contains TEXT; otherwise prints what it saw and fails.
want=$1
text=$2
shift 2
err=$("$@" 2>&1 >/dev/null)
status=$?
if [ "$status" -ne "$want" ]; then
  echo "expected exit $want, got $status: $*" >&2
  echo "$err" >&2
  exit 1
fi
case $err in
  *"$text"*) ;;
  *)
    echo "stderr of '$*' does not mention '$text':" >&2
    echo "$err" >&2
    exit 1
    ;;
esac
