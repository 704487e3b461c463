#!/bin/sh
# Usage: multi_certs.sh CLI FILE...
# Analyzes every FILE in one run with --emit-certs into a fresh
# directory (exit 1 allowed: the inputs may have findings), then checks
# each FILE's sub-bundle DIR/<basename> with check-cert.
cli=$1
shift
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
"$cli" analyze "$@" --emit-certs "$dir/multi" > /dev/null
status=$?
if [ "$status" -ne 0 ] && [ "$status" -ne 1 ]; then
  echo "analyze --emit-certs exited $status" >&2
  exit 1
fi
for f in "$@"; do
  b=$(basename "$f" .c)
  "$cli" check-cert "$dir/multi/$b" "$f" || exit 1
done
