#!/usr/bin/env bash
# A/B comparison of the repository benchmark between a base commit and
# the working tree:
#
#   scripts/ab.sh BASE [--workload W] [--seed S] [--pairs N] [--seconds T]
#
# BASE is any commit git can archive (a hash, a branch, HEAD~1). The
# script puts BASE into .ab/base and the working tree (tracked files and
# untracked files that are not ignored, uncommitted edits included) into
# .ab/change, both ignored by git. It then runs
# `bash bench/run.sh --trace 0` N times on each side, alternating which
# side goes first in each pair, and prints:
#
#   - per pair and side, the end-to-end metrics of the run;
#   - for every end-to-end metric, the pairs in which the change was
#     better (direction from BENCHMARK.json);
#   - `bench -compare` over the two sides' runs: each side's median,
#     quartiles and run count, the ratio, and any regression beyond the
#     bounds in BENCHMARK.json;
#   - one `--trace 1` run per side, for the per-layer metrics.
#
# Defaults: every workload, seed 1, 3 pairs, 12 seconds. Each side keeps
# its build cache (.ab/<side>/.bench_build) across invocations; its
# sources and bench/out are replaced every time. The exit code is that
# of `bench -compare`: 1 when it finds a regression.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh BASE [--workload W] [--seed S] [--pairs N] [--seconds T]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
base_rev=$1
shift
workload=all seed=1 pairs=3 seconds=12
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

cd "$(dirname "$0")/.."
root=$(pwd)
ab="$root/.ab"
base_sha=$(git rev-parse --verify "$base_rev^{commit}")

# fresh SIDE: empty .ab/SIDE except its build cache.
fresh() {
    mkdir -p "$ab/$1"
    find "$ab/$1" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
}
fresh base
fresh change
git archive "$base_sha" | tar -x -C "$ab/base"
git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - | tar -x -C "$ab/change"
echo "base:   $base_sha -> .ab/base"
echo "change: working tree of $(git rev-parse --short HEAD) -> .ab/change"

# bench SIDE RUN TRACE: one benchmark run on SIDE, its standard output
# in .ab/SIDE/ab-RUN.txt.
bench() {
    echo "-- $1 run $2: bench/run.sh --workload $workload --seed $seed --seconds $seconds --trace $3" >&2
    (cd "$ab/$1" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$3") \
        > "$ab/$1/ab-$2.txt"
}

# Untraced pairs; each run's last line, its JSON summary, goes to
# .ab/SIDE/ab-summaries.jsonl in pair order.
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then order="base change"; else order="change base"; fi
    for side in $order; do
        bench "$side" "$p" 0
        tail -n 1 "$ab/$side/ab-$p.txt" >> "$ab/$side/ab-summaries.jsonl"
    done
done

echo
echo "== end-to-end metrics per pair =="
for side in base change; do
    jq -r --arg side "$side" '
        (.metrics | to_entries | map("\(.key)=\(.value.value)") | join(" ")) as $m
        | "\($side) pair \(input_line_number): correct=\(.correct) failed=\(.failed)/\(.attempted) \($m)"' \
        "$ab/$side/ab-summaries.jsonl"
done

echo
echo "== pairs in which the change is better =="
jq -rn --slurpfile spec BENCHMARK.json \
    --slurpfile b "$ab/base/ab-summaries.jsonl" --slurpfile c "$ab/change/ab-summaries.jsonl" '
    ($spec[0].end_to_end | map({(.name): .better}) | add) as $better
    | $b[0].metrics | keys[] as $k
    | $better[$k | split("/") | last] as $dir
    | select($dir != null)
    | [range(0; $b | length)
        | ($b[.].metrics[$k].value) as $x | ($c[.].metrics[$k].value) as $y
        | select(if $dir == "lower" then $y < $x else $y > $x end)] | length
    | "\($k) (\($dir) is better): change better in \(.) of \($b | length) pairs"'

echo
echo "== bench -compare (base, change) =="
status=0
(cd "$ab/base" && bash bench/run.sh -compare "$ab/base/bench/out/results.jsonl" "$ab/change/bench/out/results.jsonl") || status=$?

echo
echo "== one traced run per side =="
for side in base change; do
    bench "$side" traced 1
    echo "-- $side"
    cat "$ab/$side/ab-traced.txt"
done
exit "$status"
