#!/usr/bin/env bash
# Lines-of-code budget: per-crate `*.rs` line counts (sources and tests
# alike) beside the figures frozen in LOC_BUDGET.txt, with the delta —
# plus the two workspace-wide tracked numbers of ROADMAP.md: `total`
# (all of the above) and `allows` (suppressions in the same files, lint
# fixtures included: st-lint's `st-lint: allow` comments and the
# compiler's `#[expect(` / `#![expect(` attributes). Informational, like
# bench_trend.sh — growth should be a visible decision, not a gate.
# `root` is src/, tests/ and examples/.
#
# Usage: loc_budget.sh            print current vs frozen
#        loc_budget.sh --freeze   rewrite LOC_BUDGET.txt from the tree
set -euo pipefail
cd "$(dirname "$0")/.."

budget=LOC_BUDGET.txt

# The `*.rs` files git tracks or would track.
sources() {
    git ls-files --cached --others --exclude-standard -- \
        'crates/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs' |
        while IFS= read -r f; do [ -f "$f" ] && echo "$f"; done
}

# "<name> <lines>" per crate, then the `total` and `allows` rows.
count() {
    sources | while IFS= read -r f; do
        case "$f" in
            crates/*) name="${f#crates/}"; name="${name%%/*}" ;;
            *) name=root ;;
        esac
        echo "$name $(wc -l < "$f")"
    done |
        awk '{ n[$1] += $2 } END { for (k in n) print k, n[k] }' | sort |
        awk '{ print; t += $2 } END { print "total", t }'
    echo "allows $(sources | tr '\n' '\0' | xargs -0 grep -hE 'st-lint: allow|#!?\[expect\(' | wc -l)"
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
    }
    END {
        for (k in frozen) {
            if (!(k in seen)) {
                printf "%-14s %8d %8d %+8d\n", k, frozen[k], 0, -frozen[k]
            }
        }
    }'
