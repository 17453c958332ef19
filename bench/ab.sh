#!/usr/bin/env bash
# ab.sh — same-host A/B comparison of two revisions with the benchmark.
#
#   bench/ab.sh REV_A REV_B [WORKLOAD...]
#
# Exports both revisions with `git archive` into a temporary directory and
# copies this checkout's bench/ and BENCHMARK.json into both, so the two
# sides run identical benchmark code. For each workload (default: all) it
# runs 10 pairs of runs, each run as long as BENCHMARK.json's run_seconds
# and each pair on its own seed, A first in odd pairs and B first in even
# ones. It then prints, per workload and end-to-end metric, each side's
# median and quartiles, the share of pairs B won, and a verdict — improved,
# unchanged, unresolved or regressed — under the bounds in BENCHMARK.json
# (see bench/README.md).
#
# Example: bench/ab.sh HEAD~1 HEAD gups-64p
set -euo pipefail
cd "$(dirname "$0")/.."

pairs=10 # compare.go's minPairs: fewer pairs give no verdict
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
if [ $# -lt 2 ]; then
    echo "usage: bench/ab.sh REV_A REV_B [WORKLOAD...]" >&2
    exit 2
fi
rev_a=$1 rev_b=$2
shift 2

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
for side in a b; do
    rev=$rev_a
    [ "$side" = b ] && rev=$rev_b
    mkdir -p "$tmp/$side"
    git archive --format=tar "$rev" | tar -x -C "$tmp/$side"
    rm -rf "$tmp/$side/bench"
    cp -R bench BENCHMARK.json "$tmp/$side/"
    rm -rf "$tmp/$side/.bench_build"
    echo "== $side = $rev ($(git rev-parse --short "$rev"))"
done

# run SIDE WORKLOAD SEED appends the run's result line to SIDE.WORKLOAD.jsonl.
run() {
    local line
    line=$(cd "$tmp/$1" && bash bench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
    if [ -z "$line" ]; then
        echo "ab: $1 ($2, seed $3) printed no result" >&2
        exit 1
    fi
    echo "$line" >>"$tmp/$1.$2.jsonl"
}

workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(cd "$tmp/b" && bash bench/run.sh --list)
fi
for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then run a "$w" "$i"; run b "$w" "$i"; else run b "$w" "$i"; run a "$w" "$i"; fi
    done
    echo "== $w: $pairs pairs, $seconds s per run (A = $rev_a, B = $rev_b)"
    "$tmp/b/.bench_build/bench" --compare "$tmp/a.$w.jsonl,$tmp/b.$w.jsonl" BENCHMARK.json
done
