#!/usr/bin/env bash
# Lines-of-code budget: per-crate `*.rs` line counts (sources, tests and
# benches alike) beside the figures frozen in LOC_BUDGET.txt, with the
# delta. Informational, like bench_trend.sh — growth should be a visible
# decision, not a gate. `root` is src/, tests/ and examples/.
#
# Usage: loc_budget.sh            print current vs frozen
#        loc_budget.sh --freeze   rewrite LOC_BUDGET.txt from the tree
set -euo pipefail
cd "$(dirname "$0")/.."

budget=LOC_BUDGET.txt

# "<name> <lines>" per crate, over files git tracks or would track.
count() {
    git ls-files --cached --others --exclude-standard -- \
        'crates/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs' |
        while IFS= read -r f; do
            [ -f "$f" ] || continue
            case "$f" in
                crates/*) name="${f#crates/}"; name="${name%%/*}" ;;
                *) name=root ;;
            esac
            echo "$name $(wc -l < "$f")"
        done |
        awk '{ n[$1] += $2 } END { for (k in n) print k, n[k] }' | sort
}

if [ "${1:-}" = "--freeze" ]; then
    count > "$budget"
    echo "loc budget: froze $(wc -l < "$budget") entries into $budget"
    exit 0
fi

if [ ! -s "$budget" ]; then
    echo "loc budget: no $budget yet (run with --freeze)"
    exit 0
fi

count | awk -v budget="$budget" '
    BEGIN {
        while ((getline line < budget) > 0) {
            split(line, f, " ")
            frozen[f[1]] = f[2]
        }
        printf "%-14s %8s %8s %8s\n", "crate", "frozen", "now", "delta"
    }
    {
        seen[$1] = 1
        was = ($1 in frozen) ? frozen[$1] : 0
        printf "%-14s %8d %8d %+8d\n", $1, was, $2, $2 - was
        total_was += was
        total_now += $2
    }
    END {
        for (k in frozen) {
            if (!(k in seen)) {
                printf "%-14s %8d %8d %+8d\n", k, frozen[k], 0, -frozen[k]
                total_was += frozen[k]
            }
        }
        printf "%-14s %8d %8d %+8d\n", "total", total_was, total_now, total_now - total_was
    }'
