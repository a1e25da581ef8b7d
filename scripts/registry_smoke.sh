#!/usr/bin/env bash
# Registry smoke test: a real `rsafactor watch` server over loopback
# HTTP, fed a planted-weak-pair corpus in three waves with a hard kill
# (SIGKILL) between waves two and three. After the restart the replayed
# registry must have lost nothing that was acknowledged, and the final
# /broken set must diff clean against a one-shot batch-GCD run of the
# same corpus. Every acknowledged verdict survives the kill because the
# server journals before it answers. The restarted server's /timeline
# and /dashboard pages are fetched and checked too, and the registry
# directory it leaves must hold only corpus.log, journal.jsonl and
# nodes/.
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

"$workdir/keygen" -n 36 -bits 256 -weak 4 -seed 7 -o "$workdir/corpus.txt"

echo "== one-shot batch-GCD oracle =="
"$workdir/rsafactor" -in "$workdir/corpus.txt" -engine batch > "$workdir/oracle.out"
# keygen indexes keys from 1 in its log but rsafactor reports 0-based
# corpus indices, same as /broken.
grep -E '^BROKEN key' "$workdir/oracle.out" | awk '{print $3}' | sort -n \
    > "$workdir/oracle.idx"
[ -s "$workdir/oracle.idx" ] || { echo "oracle found no broken keys" >&2; exit 1; }

# Strip the keygen header comment so wave line counts equal key counts.
grep -v '^#' "$workdir/corpus.txt" > "$workdir/keys.txt"
sed -n '1,12p'  "$workdir/keys.txt" > "$workdir/wave1.txt"
sed -n '13,24p' "$workdir/keys.txt" > "$workdir/wave2.txt"
sed -n '25,36p' "$workdir/keys.txt" > "$workdir/wave3.txt"

addr=127.0.0.1:39419
base="http://$addr"
wait_bind() {
    local pid=$1
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/${addr##*:}") 2>/dev/null; then
            return 0
        fi
        kill -0 "$pid" 2>/dev/null || { cat "$workdir/watch.err"; echo "watch server died"; exit 1; }
        sleep 0.1
    done
    echo "watch server never bound $addr" >&2
    exit 1
}

echo "== life 1: two waves, then SIGKILL =="
"$workdir/rsafactor" watch -dir "$workdir/reg" -addr "$addr" \
    > "$workdir/watch1.out" 2> "$workdir/watch.err" &
watch=$!
wait_bind "$watch"

curl -sf --data-binary @"$workdir/wave1.txt" "$base/submit?sync=1" > "$workdir/job1.json"
curl -sf --data-binary @"$workdir/wave2.txt" "$base/submit?sync=1" > "$workdir/job2.json"
for j in 1 2; do
    state=$(jq -r .state "$workdir/job$j.json")
    n=$(jq '.verdicts | length' "$workdir/job$j.json")
    if [ "$state" != done ] || [ "$n" -ne 12 ]; then
        echo "wave $j job state=$state verdicts=$n" >&2
        cat "$workdir/job$j.json" >&2
        exit 1
    fi
done

# Hard kill: no shutdown hook runs. The durability contract is that
# everything already acknowledged above survives.
kill -9 "$watch"
wait "$watch" 2>/dev/null || true

echo "== life 2: restart, verify replay, final wave =="
"$workdir/rsafactor" watch -dir "$workdir/reg" -addr "$addr" \
    -report "$workdir/report.json" \
    > "$workdir/watch2.out" 2>> "$workdir/watch.err" &
watch=$!
wait_bind "$watch"

keys=$(curl -sf "$base/registry" | jq .Keys)
if [ "$keys" -ne 24 ]; then
    echo "registry lost acknowledged keys across SIGKILL: $keys/24" >&2
    exit 1
fi

# Waves 1 and 2 post ?sync=1, as older clients do; wave 3 posts plain,
# and the server answers every submit inline once it is durable.
curl -sf --data-binary @"$workdir/wave3.txt" "$base/submit" > "$workdir/job3.json"
[ "$(jq -r .state "$workdir/job3.json")" = done ]
[ "$(jq '.verdicts | length' "$workdir/job3.json")" -eq 12 ]

echo "== diff /broken against the oracle =="
curl -sf "$base/broken" > "$workdir/broken.json"
jq -r '.[].index' "$workdir/broken.json" | sort -n > "$workdir/broken.idx"
diff "$workdir/oracle.idx" "$workdir/broken.idx"

# Every reported g must be a nontrivial divisor of its modulus, and must
# match a factor the oracle recovered (p or q of the same key).
python3 - "$workdir/keys.txt" "$workdir/broken.json" "$workdir/oracle.out" <<'EOF'
import json, re, sys
corpus = [int(l, 16) for l in open(sys.argv[1]) if l.strip()]
broken = json.load(open(sys.argv[2]))
oracle = {}
idx = None
for line in open(sys.argv[3]):
    m = re.match(r'BROKEN key (\d+)', line)
    if m:
        idx = int(m.group(1)); oracle[idx] = set()
    m = re.match(r'  [pq] = ([0-9a-f]+)', line)
    if m and idx is not None:
        oracle[idx].add(int(m.group(1), 16))
assert broken, "empty /broken"
for b in broken:
    i, g = b["index"], int(b["g"], 16)
    n = corpus[i]
    assert 1 < g < n and n % g == 0, f"key {i}: g is not a nontrivial divisor"
    assert g in oracle[i], f"key {i}: g={g:x} not among oracle factors"
print(f"all {len(broken)} g values verified against the oracle factors")
EOF

# Scrape to a file, then grep it: piping curl into `grep -q` under
# pipefail fails whenever grep exits on its first match before curl has
# written the rest of the body (curl then dies with exit 23).
curl -sf "$base/metrics" > "$workdir/metrics.txt"
grep -q '^registry_submissions_total' "$workdir/metrics.txt"

# The status pages every server carries: the /timeline ring records its
# first point at startup, and /dashboard is the page that polls it.
curl -sf "$base/timeline" > "$workdir/timeline.json"
jq -e '.capacity > 0 and (.points | length) >= 1' "$workdir/timeline.json" > /dev/null \
    || { echo "/timeline has no capacity or no points" >&2; cat "$workdir/timeline.json" >&2; exit 1; }
curl -sf "$base/dashboard" > "$workdir/dashboard.html"
for needle in '<html' 'timeline'; do
    grep -q "$needle" "$workdir/dashboard.html" \
        || { echo "/dashboard page missing $needle" >&2; exit 1; }
done

replayed=$(curl -sf "$base/registry" | jq .Replayed)

echo "== graceful shutdown + report =="
kill -TERM "$watch"
wait "$watch"
grep -q 'shutting down' "$workdir/watch2.out"
jq -e '.tool == "rsafactor-watch" and .summary.keys == 36 and .summary.broken > 0' \
    "$workdir/report.json" > /dev/null

# The registry is append-only: the directory a real server leaves holds
# the corpus log, the journal and the node directory, and no removed.log.
contents=$(LC_ALL=C ls -A "$workdir/reg" | tr '\n' ' ')
if [ "$contents" != "corpus.log journal.jsonl nodes " ]; then
    echo "registry directory holds: $contents; want corpus.log journal.jsonl nodes" >&2
    exit 1
fi

broken_n=$(jq length "$workdir/broken.json")
echo "registry smoke OK: 36 keys in 3 waves across a SIGKILL ($replayed replayed), $broken_n broken keys identical to the batch oracle"
