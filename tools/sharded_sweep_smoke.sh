#!/bin/sh
# The sharded-sweep round trip through the result cache, as a fleet runs
# it, on micro_sweep's smoke grid: the grid in one process, then as two
# shards, each into a store of its own. The shards' files are copied into
# one store, whose merge must print the single-process digest. A merge of
# one shard's store alone must exit 1, and one of a missing store exit 2
# without creating it. A shard or a merge given --baseline must exit 2:
# neither makes the serial run a baseline is compared with.
#
#   sh tools/sharded_sweep_smoke.sh PATH/TO/micro_sweep WORK_DIR
#
# WORK_DIR is emptied first and keeps the stores and JSON files after.
set -eu
bench=$1
work=$2
rm -rf "$work"
mkdir -p "$work/merged"
cd "$work"
export CF_BENCH_SMOKE=1

"$bench" --json-out full.json
"$bench" --shard 0/2 --cache-dir s0
"$bench" --shard 1/2 --cache-dir s1
cp s0/shard-*.bin s1/shard-*.bin merged/
"$bench" --merge merged --json-out merged.json
digest() {
  grep -o "\"$1\": \"[0-9a-f]*\"" "$2" | grep -o '[0-9a-f]\{16\}'
}
serial=$(digest serial_digest full.json)
merged=$(digest merged_digest merged.json)
echo "serial=$serial merged=$merged"
test -n "$serial"
test "$serial" = "$merged"

status=0
"$bench" --merge s0 || status=$?
echo "one-store merge exit: $status"
test "$status" -eq 1

status=0
"$bench" --merge absent || status=$?
echo "missing-store merge exit: $status"
test "$status" -eq 2
test ! -e absent

status=0
"$bench" --shard 0/2 --cache-dir refused --baseline full.json || status=$?
echo "shard with --baseline exit: $status"
test "$status" -eq 2
test ! -e refused

status=0
"$bench" --merge merged --baseline full.json || status=$?
echo "merge with --baseline exit: $status"
test "$status" -eq 2
echo "sharded sweep round trip: OK"
