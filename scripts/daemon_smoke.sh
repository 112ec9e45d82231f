#!/usr/bin/env bash
# Daemon warm-restart smoke: drives the pinned differential corpus through
# a real `minicc-serve --serve` process twice — cold, then warm from the
# on-disk artifact store after a full daemon restart — and requires the
# two verdict streams to be byte-identical modulo the cache-trace token.
#
#   daemon_smoke.sh <minicc-serve> <minicc-fuzz> <count>
#
# Two legs per daemon lifetime: parse jobs first (these populate, then
# load, the disk store), then -run jobs (these execute; on the warm pass
# they promote disk-loaded stub artifacts to live modules). The cold
# daemon also gets a hostile leg before its shutdown (see hostile_leg). The legs are
# sequential client invocations so single-flight races between jobs that
# share an L3 key cannot make the trace stream nondeterministic.
set -eu
BIN=$1; FUZZ=$2; COUNT=$3
SMOKE=$(mktemp -d)
DPID=
# A failing check exits with the daemon still up: stop it too. Under
# set -e a failing command in the trap would end the script with its
# status, so a kill that finds no daemon must not fail.
trap '[ -z "$DPID" ] || kill "$DPID" 2>/dev/null || true; rm -rf "$SMOKE"' EXIT
"$FUZZ" --seed=2021 --count="$COUNT" --quiet --dump-source > "$SMOKE/corpus.txt"
awk -v dir="$SMOKE" '/^\/\/ seed=/{n++} n{print > (dir "/prog" n ".c")}' "$SMOKE/corpus.txt"
: > "$SMOKE/jobs-parse.txt"; : > "$SMOKE/jobs-run.txt"
for f in "$SMOKE"/prog*.c; do
  echo "$f" >> "$SMOKE/jobs-parse.txt"
  echo "-run $f" >> "$SMOKE/jobs-run.txt"
done
# The client exits 1 when corpus jobs FAIL (conservative fuse/distribute
# rejections are part of the corpus), so correctness is asserted on the
# verdict stream, not on exit codes.
#
# Hostile leg (cold pass only): a zero-thread -run job, which the job
# grammar refuses (a team of 0 would divide by zero and kill the daemon),
# and a job that #includes a host file by absolute path, which must fail
# as file-not-found without echoing the file. The shutdown leg that
# follows needs the daemon still answering.
hostile_leg() {
  printf '%s\n' 'int a[8];' 'int main(void) {' '#pragma omp parallel for' \
    'for (int i = 0; i < 8; i = i + 1) a[i] = i;' 'return a[7]; }' \
    > "$SMOKE/hostile-par.c"
  echo "-num-threads=0 -run $SMOKE/hostile-par.c" \
    > "$SMOKE/jobs-hostile-threads.txt"
  echo "host file marker" > "$SMOKE/host-file.txt"
  printf '#include "%s"\nint main(void) { return 0; }\n' \
    "$SMOKE/host-file.txt" > "$SMOKE/hostile-include.c"
  echo "$SMOKE/hostile-include.c" > "$SMOKE/jobs-hostile-include.txt"
  for J in threads include; do
    if "$BIN" --client --socket="$SMOKE/d.sock" "$SMOKE/jobs-hostile-$J.txt" \
         > "$SMOKE/hostile-$J.out" 2> "$SMOKE/hostile-$J.err"; then
      echo "hostile/$J: expected the job to be refused or to fail" >&2; exit 1
    fi
    if grep -q '^\[[0-9]*\] OK' "$SMOKE/hostile-$J.out"; then
      echo "hostile/$J: job succeeded" >&2; exit 1
    fi
  done
  grep -q 'file not found' "$SMOKE/hostile-include.err" || {
    echo "hostile/include: expected file not found" >&2; exit 1; }
  if grep -q 'host file marker' "$SMOKE/hostile-include.err"; then
    echo "hostile/include: the host file leaked into diagnostics" >&2; exit 1
  fi
}
# Both stats paths must give one JSON object with the service's and the
# daemon's counters: the client's fetch over the socket, and the daemon's
# own print at exit.
check_stats() {  # $1 = JSON file
  python3 -c 'import json, sys
sys.exit(0 if {"service", "daemon"} <= json.load(open(sys.argv[1])).keys()
         else 1)' "$1" || { echo "$1: bad stats JSON" >&2; exit 1; }
}
run_pass() {  # $1 = pass name
  "$BIN" --serve --socket="$SMOKE/d.sock" --jobs=2 \
         --disk-store="$SMOKE/store" --disk-mb=64 --stats=json \
         > "$SMOKE/$1-daemon-stats.json" &
  DPID=$!
  for i in $(seq 100); do [ -S "$SMOKE/d.sock" ] && break; sleep 0.1; done
  "$BIN" --client --socket="$SMOKE/d.sock" "$SMOKE/jobs-parse.txt" \
    > "$SMOKE/$1-parse.txt" || true
  "$BIN" --client --socket="$SMOKE/d.sock" "$SMOKE/jobs-run.txt" \
    > "$SMOKE/$1-run.txt" || true
  [ "$1" != cold ] || hostile_leg
  "$BIN" --client --socket="$SMOKE/d.sock" --stats=json \
    > "$SMOKE/$1-client-stats.json"
  "$BIN" --client --socket="$SMOKE/d.sock" --shutdown
  wait "$DPID"
  DPID=
  check_stats "$SMOKE/$1-client-stats.json"
  check_stats "$SMOKE/$1-daemon-stats.json"
  for LEG in parse run; do
    VERDICTS=$(grep -c '^\[' "$SMOKE/$1-$LEG.txt" || true)
    [ "$VERDICTS" -eq "$COUNT" ] || {
      echo "$1/$LEG: expected $COUNT verdicts, got $VERDICTS" >&2; exit 1; }
    if grep -Eq '^\[[0-9]+\] (CANCELLED|ERROR|REJECTED)' "$SMOKE/$1-$LEG.txt"
    then echo "$1/$LEG: dropped or errored jobs" >&2; exit 1; fi
  done
}
run_pass cold
run_pass warm
HITS=$(grep -c 'disk hit' "$SMOKE/warm-parse.txt" || true)
[ "$HITS" -eq "$COUNT" ] || {
  echo "expected $COUNT disk hits after restart, got $HITS" >&2; exit 1; }
for f in cold-parse warm-parse cold-run warm-run; do
  sed -E 's/\((cold|L[123] hit|disk hit)\)/(x)/' "$SMOKE/$f.txt" \
    > "$SMOKE/$f.norm"
done
diff -u "$SMOKE/cold-parse.norm" "$SMOKE/warm-parse.norm"
diff -u "$SMOKE/cold-run.norm" "$SMOKE/warm-run.norm"
echo "daemon smoke OK: $COUNT jobs, warm-restart verdicts byte-identical"
