#!/bin/sh
# A cache write that runs out of space must publish nothing.
#
#   sh full_disk.sh SAFEFLOW SOURCE
#
# The first run analyzes SOURCE into an empty cache under a 2 KiB
# file-size limit (ulimit -f counts 512-byte blocks), with SIGXFSZ ignored
# so that a write past the limit fails with EFBIG instead of killing the
# process.  Its report must match a run with no cache.  The second run,
# with no limit, must find no corrupt entry (every cache.*.corrupt counter
# of its --stats-json is 0) and must still miss something, so the limit
# did refuse a write.  Every published entry must carry the digest of its
# own bytes, and no temp file may be left behind.
set -eu

cli=$1
src=$2
dir=full-disk-cache
rm -rf "$dir" stats.json

run() {
  status=0
  "$@" > "$out" || status=$?
  # exit 1 means findings with errors; anything above is a failure
  if [ "$status" -gt 1 ]; then
    echo "full_disk: $* exited $status" >&2
    exit 1
  fi
}

out=plain.out run "$cli" analyze "$src"
out=limited.out run sh -c 'trap "" XFSZ; ulimit -f 4; exec "$0" analyze "$1" --cache "$2"' \
  "$cli" "$src" "$dir"
cmp plain.out limited.out
out=second.out run "$cli" analyze "$src" --cache "$dir" --stats-json stats.json
cmp plain.out second.out

counters=$(tr ',{}' '\n\n\n' < stats.json)
corrupt=$(echo "$counters" | grep '^"cache\.[a-z0-9]*\.corrupt":' || true)
if [ -z "$corrupt" ]; then
  echo "full_disk: no cache.*.corrupt counters in stats.json" >&2
  exit 1
fi
if echo "$corrupt" | grep -qv ':0$'; then
  echo "full_disk: corrupt entries on the second run:" >&2
  echo "$corrupt" >&2
  exit 1
fi
if ! echo "$counters" | grep '^"cache\.[a-z0-9]*\.misses":' | grep -qv ':0$'; then
  echo "full_disk: the limited run published every entry; the limit refused nothing" >&2
  exit 1
fi

found=0
for f in "$dir"/gen-*/*; do
  [ -e "$f" ] || continue
  case "$f" in
  */GENERATION) ;;
  *.bin)
    found=1
    if [ "$(head -c 32 "$f")" != "$(tail -c +33 "$f" | md5sum | cut -c1-32)" ]; then
      echo "full_disk: $f is truncated or damaged" >&2
      exit 1
    fi
    ;;
  *)
    echo "full_disk: stray file $f" >&2
    exit 1
    ;;
  esac
done
if [ "$found" = 0 ]; then
  echo "full_disk: no entry was published at all" >&2
  exit 1
fi
rm -rf "$dir"
