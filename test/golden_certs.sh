#!/bin/sh
# Usage: golden_certs.sh CLI FILE GOLDEN
# Writes FILE's certificate bundle into a fresh directory (exit 1
# allowed: FILE may have findings) and compares it, file by file, with
# the bundle kept in GOLDEN.
cli=$1
file=$2
golden=$3
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
"$cli" analyze "$file" --emit-certs "$dir/bundle" > /dev/null
status=$?
if [ "$status" -ne 0 ] && [ "$status" -ne 1 ]; then
  echo "analyze --emit-certs exited $status" >&2
  exit 1
fi
diff -r "$golden" "$dir/bundle"
