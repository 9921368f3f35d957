#!/bin/sh
# bench_gate.sh — deterministic performance-regression gate, run by
# `make bench-gate` and CI. Picks the two newest checked-in benchmark
# baselines (BENCH_PR*.json, ordered by PR number in the filename) and
# fails when any kernel present in both regressed by more than 10%
# (override with BENCH_GATE_TOLERANCE, a fraction). Baselines are
# committed files, so the gate never runs benchmarks itself — CI noise
# cannot flake it. Record a new baseline with `make bench-pr PR=<N>` on
# the machine of record before relying on its numbers.
#
# Usage: bench_gate.sh [OLD.json NEW.json]   (auto-picks when omitted)
set -eu

GO=${GO:-go}
cd "$(dirname "$0")/.."

if [ $# -eq 2 ]; then
    old=$1
    new=$2
elif [ $# -eq 0 ]; then
    # Newest two baselines by PR number. `ls` cannot sort numerically on
    # the embedded number, so sort on the digits between PR and .json.
    set -- $(ls BENCH_PR*.json 2>/dev/null | sort -t R -k 2 -n)
    if [ $# -lt 2 ]; then
        echo "bench_gate: need at least two BENCH_PR*.json baselines, found $#" >&2
        exit 2
    fi
    while [ $# -gt 2 ]; do shift; done
    old=$1
    new=$2
else
    echo "usage: $0 [OLD.json NEW.json]" >&2
    exit 2
fi

echo "bench_gate: $old -> $new (tolerance ${BENCH_GATE_TOLERANCE:-0.10})"
exec $GO run ./scripts/benchgate "$old" "$new"
