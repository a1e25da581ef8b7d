#!/usr/bin/env bash
# Fleet smoke test: a real coordinator process plus two worker processes
# over loopback HTTP, on a corpus with planted weak pairs. The
# coordinator's findings must diff clean against a single-process run of
# the same corpus, the journal must be compacted to one record per cell,
# and every process must exit 0.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
cleanup() {
    local pids
    pids=$(jobs -p)
    [ -n "$pids" ] && kill $pids 2>/dev/null
    wait 2>/dev/null
    rm -rf "$workdir"
    return 0
}
trap cleanup EXIT

go build -o "$workdir/rsafactor" ./cmd/rsafactor
go build -o "$workdir/keygen" ./cmd/keygen

"$workdir/keygen" -n 24 -bits 256 -weak 3 -seed 99 \
    -o "$workdir/corpus.txt" -truth "$workdir/truth.txt"

echo "== single-process oracle =="
"$workdir/rsafactor" -in "$workdir/corpus.txt" -engine hybrid -tile 6 \
    -truth "$workdir/truth.txt" > "$workdir/local.out"

echo "== coordinator + 2 workers =="
addr=127.0.0.1:39317
"$workdir/rsafactor" -in "$workdir/corpus.txt" -serve "$addr" -tile 6 \
    -lease-ttl 5s -checkpoint "$workdir/fleet.jsonl" -truth "$workdir/truth.txt" \
    > "$workdir/fleet.out" 2> "$workdir/fleet.err" &
coord=$!

# Wait for the coordinator to bind before starting workers (their
# backoff would absorb the race, but the smoke test should not rely on
# it).
for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/${addr##*:}") 2>/dev/null; then
        break
    fi
    kill -0 "$coord" 2>/dev/null || { cat "$workdir/fleet.err"; echo "coordinator died"; exit 1; }
    sleep 0.1
done

"$workdir/rsafactor" -in "$workdir/corpus.txt" -worker "$addr" -tile 6 -worker-id w1 \
    > "$workdir/w1.out" & w1=$!
"$workdir/rsafactor" -in "$workdir/corpus.txt" -worker "$addr" -tile 6 -worker-id w2 \
    > "$workdir/w2.out" & w2=$!

wait "$w1"; wait "$w2"
wait "$coord"

echo "== diff findings =="
filter() { grep -E '^(BROKEN|DUPLICATE|  [npqd] =|summary:|verification:)' "$1"; }
diff <(filter "$workdir/local.out") <(filter "$workdir/fleet.out")

grep -q 'verification: all 3 planted pairs recovered' "$workdir/fleet.out"
grep -qE 'worker w1: [0-9]+ cells completed' "$workdir/w1.out"
grep -qE 'worker w2: [0-9]+ cells completed' "$workdir/w2.out"

# The compacted journal must hold exactly header + one record per cell.
cells=$(grep -c '"unit"' "$workdir/fleet.jsonl")
units=$(grep -m1 -o '"units":[0-9]*' "$workdir/fleet.jsonl" | cut -d: -f2)
if [ "$cells" -ne "$units" ]; then
    echo "journal has $cells records for $units cells" >&2
    exit 1
fi

echo "fleet smoke OK: $cells cells, findings identical to single-process run"
