#!/usr/bin/env bash
# Results-plane digest: the 20 seed-deterministic experiments (every
# one but the wall-clock rt_calibration, rt_chaos and trace_overhead) at
# quick scale under seed 42, as `--json`, reduced to "<bytes> <sha256>"
# and compared with the line committed in REPRO_DIGEST.txt. A refactor
# that claims "same behaviour" must leave it alone; a PR that moves a
# reported number on purpose re-freezes it and says so.
#
# Usage: repro_digest.sh            run, print, compare with the frozen line
#        repro_digest.sh --freeze   run, print, rewrite REPRO_DIGEST.txt
set -euo pipefail
cd "$(dirname "$0")/.."

digest=REPRO_DIGEST.txt
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

cargo run --release --offline --quiet -p st-experiments --bin repro -- \
    sec52 table3 table45 table67 table8 congestion overload timeline \
    fault_matrix profiler fig2 fig4 fig5 fig6 scaling appendix_a livelock \
    latency ack_compression profiler_overhead \
    --quick --seed 42 --json - > "$out"
now="$(wc -c < "$out") $(sha256sum "$out" | cut -d' ' -f1)"
echo "repro digest: $now"

if [ "${1:-}" = "--freeze" ]; then
    echo "$now" > "$digest"
    echo "repro digest: froze into $digest"
    exit 0
fi

[ -s "$digest" ] || { echo "repro digest: no $digest yet (run with --freeze)" >&2; exit 1; }
frozen="$(cat "$digest")"
if [ "$now" != "$frozen" ]; then
    echo "repro digest: --json bytes moved (frozen: $frozen)" >&2
    exit 1
fi
echo "repro digest: identical to $digest"
