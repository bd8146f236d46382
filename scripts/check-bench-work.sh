#!/usr/bin/env bash
# Work gate: the exact counts of a traced t1-agent benchmark run must equal
# the baseline in scripts/bench-work.jsonl. The counts (run.interactions,
# core.calls.*, core.polls.*, serve.computed, serve.hit_ratio,
# serve.response_bytes) repeat bit for bit for a given seed on any machine,
# so a difference means the simulator now does different work. Run it on a
# record written with the benchmark's --out flag:
#
#   bash bench/run.sh --workload t1-agent --seed 1 --seconds 3 --trace 1 --out t1.jsonl
#   bash scripts/check-bench-work.sh t1.jsonl
#
# `bench -compare` exits 0 whatever its verdicts are, so this script reads
# them: it passes only when every one of the baseline's metrics has a row
# reading "unchanged". A change that alters the work on purpose copies the
# eleven exact counts from such a record's "metrics" object into the
# baseline's, and says so in CHANGES.md.
set -euo pipefail
if [ $# -ne 1 ]; then
    echo "usage: $0 RUN.jsonl" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
baseline=$root/scripts/bench-work.jsonl

report=$(bash "$root/bench/run.sh" -compare "$baseline" "$1")
echo "$report"
rows=$(printf '%s\n' "$report" | tail -n +2)
want=$(grep -o '"[a-z_]*\.[a-z_.]*":' "$baseline" | wc -l)
got=$(printf '%s\n' "$rows" | grep -c '  unchanged$' || true)
if [ "$got" -eq 0 ] || [ "$got" -ne "$want" ]; then
    echo "check-bench-work: $got of the baseline's $want exact counts compared unchanged against $baseline:" >&2
    printf '%s\n' "$rows" | grep -v '  unchanged$' >&2 || true
    exit 1
fi
echo "check-bench-work: all $want exact counts unchanged"
