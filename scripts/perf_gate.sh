#!/usr/bin/env bash
# Perf-trajectory gate: compare a fresh bench-suite snapshot against the
# newest committed BENCH_*.json and fail on tolerance-exceeding
# regressions (min_ns growth beyond PERF_GATE_TOL, default 30%, plus the
# 20 ns absolute floor bench-suite applies to ignore clock noise).
#
# Usage: perf_gate.sh [NEW_SNAPSHOT]
#
# With no argument a smoke snapshot is measured into a temp file; pass a
# path to gate an existing snapshot instead. No committed BENCH_*.json
# yet (first PR that introduces the harness) => no-op success, so the
# gate can sit in CI before any trajectory exists.
set -euo pipefail
cd "$(dirname "$0")/.."

new="${1:-}"
tol="${PERF_GATE_TOL:-0.30}"

# The baseline is the newest BENCH_*.json tracked by git, not whatever
# an earlier local run left in the worktree.
prior="$(git ls-files 'BENCH_*.json' | sort -V | tail -n 1)"
if [ -z "$prior" ]; then
    echo "perf gate: no committed BENCH_*.json baseline yet - skipping"
    exit 0
fi

tmp="$(mktemp --suffix .json)"
trap 'rm -f "$tmp"' EXIT
if [ -z "$new" ]; then
    echo "perf gate: measuring smoke snapshot..."
    cargo run --release --offline -p st-bench --bin bench-suite -- \
        --smoke --out "$tmp" >/dev/null
    new="$tmp"
fi
[ -s "$new" ] || { echo "perf gate: snapshot $new missing or empty" >&2; exit 1; }

if cargo run --release --offline -p st-bench --bin bench-suite -- \
    --compare "$prior" "$new" --tolerance "$tol"; then
    exit 0
fi

# A shared CI machine can hand an entire smoke run a slow core or a cold
# cache; a real regression reproduces. Re-measure once and only fail if
# the regression persists.
echo "perf gate: regression reported - re-measuring once to rule out machine noise"
cargo run --release --offline -p st-bench --bin bench-suite -- \
    --smoke --out "$tmp" >/dev/null
cargo run --release --offline -p st-bench --bin bench-suite -- \
    --compare "$prior" "$tmp" --tolerance "$tol"
