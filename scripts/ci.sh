#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, and the tier-1 build+test cycle,
# all fully offline (the workspace has no registry dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== clippy fixtures: the compiler-enforced rules still fire =="
# The fixture crate in crates/lint/tests/fixtures/clippy/ compiles the
# fixtures of the rules rustc and clippy enforce (no unsafe, no wall
# clock, no HashMap, no panicking unwrap/index, sealed trace, expect-only
# suppressions) under the root clippy.toml. Its (file, line, lint) set
# must equal expected.txt: every planted violation fires, an #[expect]ed
# one does not, and a stale #[expect] is an unfulfilled expectation. The
# crate is meant to fail to compile, so clippy's exit status is ignored;
# an empty or partial set fails the diff instead.
fixtures=crates/lint/tests/fixtures/clippy
found="$(mktemp)"
cargo clippy --offline --quiet --manifest-path "$fixtures/Cargo.toml" \
    --target-dir target/clippy-fixtures --message-format=json 2>/dev/null |
    jq -r 'select(.reason == "compiler-message" and .message.code != null)
        | .message as $m | $m.spans[] | select(.is_primary)
        | "\(.file_name):\(.line_start):\($m.code.code)"' |
    LC_ALL=C sort -u > "$found" || true
if ! diff -u "$fixtures/expected.txt" "$found"; then
    rm -f "$found"
    echo "clippy fixtures: findings differ from $fixtures/expected.txt" >&2
    exit 1
fi
rm -f "$found"

echo "== st-lint: determinism & timing-safety invariants =="
# Exits 1 on any unsuppressed finding; stale or reasonless suppressions
# are findings too (allow-hygiene), so the allow-list cannot rot. The
# pass itself is budgeted: the symbol-resolved analyses must stay cheap
# enough to run before every build (the lint.full_workspace bench entry
# tracks the analysis cost; this asserts the end-to-end step, binary
# already built, never grows past LINT_BUDGET_SECS wall-clock seconds).
cargo build --release --offline -p st-lint
lint_budget="${LINT_BUDGET_SECS:-10}"
lint_start=$(date +%s)
cargo run --release --offline -p st-lint
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -gt "$lint_budget" ]; then
    echo "st-lint exceeded its wall-clock budget: ${lint_elapsed}s > ${lint_budget}s" >&2
    exit 1
fi
echo "st-lint wall clock: ${lint_elapsed}s (budget ${lint_budget}s)"

echo "== tier-1: cargo build --release =="
cargo build --release --offline

echo "== tier-1: cargo test -q =="
cargo test -q --offline

echo "== workspace tests =="
cargo test -q --workspace --offline

echo "== observability smoke: repro --json / --trace =="
# repro validates every JSON artifact with st-trace's own parser before
# writing and exits non-zero otherwise, so this doubles as a round-trip
# check of the exporters.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cargo run --release --offline -p st-experiments --bin repro -- \
    sec52 trace_overhead congestion --quick --seed 3 \
    --json "$SMOKE_DIR/metrics.json" --trace "$SMOKE_DIR/trace" >/dev/null
for f in metrics.json trace/chrome_trace.json trace/metrics.jsonl trace/summary.txt; do
    [ -s "$SMOKE_DIR/$f" ] || { echo "smoke: missing or empty $f" >&2; exit 1; }
done
[ "$(wc -l < "$SMOKE_DIR/metrics.json")" -eq 3 ] \
    || { echo "smoke: expected one JSON line per experiment" >&2; exit 1; }
# The lossy path must replay byte-for-byte from one seed: the whole
# loss-recovery stack (wire faults, drop-tail queue, dup ACKs, RTO
# backoff, soft-timer residuals) hangs off forked seeded RNG streams.
cargo run --release --offline -p st-experiments --bin repro -- \
    congestion --quick --seed 3 --json - > "$SMOKE_DIR/congestion_a.json"
cargo run --release --offline -p st-experiments --bin repro -- \
    congestion --quick --seed 3 --json - > "$SMOKE_DIR/congestion_b.json"
cmp -s "$SMOKE_DIR/congestion_a.json" "$SMOKE_DIR/congestion_b.json" \
    || { echo "smoke: congestion replay diverged between identical seeds" >&2; exit 1; }
grep -q '"pacing_wins":1' "$SMOKE_DIR/congestion_a.json" \
    || { echo "smoke: paced sender did not beat slow start through the small buffer" >&2; exit 1; }
grep -q '"backoff_bounded":1' "$SMOKE_DIR/congestion_a.json" \
    || { echo "smoke: RTO backoff exceeded its bound" >&2; exit 1; }

echo "== overload smoke: admission control + replay gate =="
# The open-loop admission path adds its own forked RNG stream plus the
# fixed-point limiter state machines; replay byte-identity gates them
# all, and the headline metrics assert the acceptance criteria: the
# undefended flash crowd collapses, a soft-timer limiter holds goodput,
# and soft limit updates cost no more than the hardware-timer variant.
cargo run --release --offline -p st-experiments --bin repro -- \
    overload --quick --seed 42 --json - > "$SMOKE_DIR/overload_a.json"
cargo run --release --offline -p st-experiments --bin repro -- \
    overload --quick --seed 42 --json - > "$SMOKE_DIR/overload_b.json"
cmp -s "$SMOKE_DIR/overload_a.json" "$SMOKE_DIR/overload_b.json" \
    || { echo "smoke: overload replay diverged between identical seeds" >&2; exit 1; }
grep -q '"no_admission_collapses":1' "$SMOKE_DIR/overload_a.json" \
    || { echo "smoke: undefended flash crowd failed to collapse" >&2; exit 1; }
grep -q '"soft_timer_holds":1' "$SMOKE_DIR/overload_a.json" \
    || { echo "smoke: no soft-timer limiter held goodput through the surge" >&2; exit 1; }
grep -q '"soft_cheaper_than_hw":1' "$SMOKE_DIR/overload_a.json" \
    || { echo "smoke: soft-timer limit updates cost more than the hardware timer" >&2; exit 1; }

echo "== timeline smoke: repro timeline + --timeline export gate =="
# The telemetry plane must be invisible to the results plane: --json
# bytes are identical whether the timeline records or not, and the
# exported JSONL (validated line-by-line by repro itself before
# writing) must carry series and waterfall lines. The overload run
# from the previous block used the same seed, so it doubles as the
# timeline-off baseline.
cargo run --release --offline -p st-experiments --bin repro -- \
    overload --quick --seed 42 --json - \
    --timeline "$SMOKE_DIR/tl" > "$SMOKE_DIR/overload_tl.json"
cmp -s "$SMOKE_DIR/overload_a.json" "$SMOKE_DIR/overload_tl.json" \
    || { echo "smoke: --timeline perturbed overload's --json bytes" >&2; exit 1; }
cargo run --release --offline -p st-experiments --bin repro -- \
    timeline --quick --seed 1 --json - > "$SMOKE_DIR/timeline_a.json"
[ -s "$SMOKE_DIR/tl/timeline.jsonl" ] \
    || { echo "smoke: --timeline wrote no timeline.jsonl" >&2; exit 1; }
grep -q '"type":"series"' "$SMOKE_DIR/tl/timeline.jsonl" \
    || { echo "smoke: timeline.jsonl has no series lines" >&2; exit 1; }
grep -q '"type":"waterfall"' "$SMOKE_DIR/tl/timeline.jsonl" \
    || { echo "smoke: timeline.jsonl has no waterfall lines" >&2; exit 1; }
grep -q '"attribution_exact":1' "$SMOKE_DIR/timeline_a.json" \
    || { echo "smoke: fire-delay attribution failed to reconcile with the facility" >&2; exit 1; }
grep -q '"soft_sampling_cheaper":1' "$SMOKE_DIR/timeline_a.json" \
    || { echo "smoke: soft-timer sampling cost more than the hardware sampler" >&2; exit 1; }

echo "== repro digest: the results plane is byte-identical to the frozen run =="
# All 20 seed-deterministic experiments under one seed, reduced to a
# byte count and a sha256 and compared with REPRO_DIGEST.txt. A PR that moves a
# reported number on purpose re-freezes (`repro_digest.sh --freeze`) and
# says so; any other difference is a regression.
scripts/repro_digest.sh

echo "== rt smoke: host runtime + sim<->reality calibration =="
# rt_calibration runs the facility on real OS threads: probes the host's
# check/dispatch/clock costs, measures trigger intervals and fire delays
# in wall-clock ns, fits the sim's CostModel from the measurements, and
# replays the measured run sim-side twice (byte-identity gated inside
# the experiment; sim_replay_identical:1 asserts it from out here). The
# host half is real measurement, so nothing gates on its magnitudes —
# only on the artifact being present, valid, and complete, and on one
# ratio of two of the run's own numbers: the idle lane waits on the
# deadline word, so the fires it dispatches are late by a wake-up
# (~100 ns), not by half its interval between checks
# (`host_idle_poll_fire_delay_p50_ns * 2 < host_idle_poll_interval_p50_ns`;
# a blind pause cannot meet it: its own fires are half an interval plus
# the check late in the median). The idle lane's own fires, not all of
# them: the run spins three lanes, and with fewer cores than that the
# median over every lane's fires says how long the idle lane was off
# its core, not what it does while on it. RT_SMOKE=0 skips the step
# (e.g. on a machine too loaded to run timing threads); RT_SMOKE_SECS
# bounds the host measurement + probe budget.
if [ "${RT_SMOKE:-1}" = "0" ]; then
    echo "rt smoke: skipped (RT_SMOKE=0)"
else
    RT_SMOKE_SECS="${RT_SMOKE_SECS:-2}" \
    cargo run --release --offline -p st-experiments --bin repro -- \
        rt_calibration --quick --seed 1 --json - > "$SMOKE_DIR/rt.json"
    [ "$(wc -l < "$SMOKE_DIR/rt.json")" -eq 1 ] \
        || { echo "rt smoke: expected exactly one JSON line" >&2; exit 1; }
    for key in host_task_return_density_hz host_fire_delay_p99_ns \
               host_backup_share host_check_cost_p50_ns \
               fitted_trigger_check_ns fitted_fire_dispatch_ns \
               model_prof_sample_ns err_fire_delay_p99 \
               err_facility_cpu_fraction \
               host_idle_poll_fire_delay_p50_ns \
               host_idle_poll_interval_p50_ns; do
        grep -q "\"$key\"" "$SMOKE_DIR/rt.json" \
            || { echo "rt smoke: missing metric $key" >&2; exit 1; }
    done
    delay="$(grep -o '"host_idle_poll_fire_delay_p50_ns":[0-9]*' "$SMOKE_DIR/rt.json" | cut -d: -f2)"
    interval="$(grep -o '"host_idle_poll_interval_p50_ns":[0-9]*' "$SMOKE_DIR/rt.json" | cut -d: -f2)"
    case "$delay:$interval" in
        :* | *:) echo "rt smoke: idle-lane fire delay '$delay' / interval '$interval': not two integers" >&2; exit 1 ;;
    esac
    echo "rt smoke: idle lane: fire delay p50 $delay ns, interval p50 $interval ns"
    [ $((delay * 2)) -lt "$interval" ] \
        || { echo "rt smoke: the idle lane's fires are not under half its interval late: it is not waking at the deadline" >&2; exit 1; }
    grep -q '"sim_replay_identical":1' "$SMOKE_DIR/rt.json" \
        || { echo "rt smoke: sim replay diverged under a fixed seed" >&2; exit 1; }
fi

echo "== rt chaos smoke: supervised runtime under fault injection =="
# rt_chaos runs the guarded host runtime through six fault classes
# (stalls, synchronized trigger starvation, handler panics, clock
# jumps) injected from the st-fault plan's seeded schedule. Host-side
# latencies are real measurement and never gate; what gates is the
# structure: the JSON artifact validates, every class's supervisor
# action log replays byte-identically in the sim twin, and at least one
# injected stall was detected and recovered from. RT_CHAOS=0 skips the
# step (same escape hatch as RT_SMOKE); RT_CHAOS_SECS bounds the total
# host budget across all classes.
if [ "${RT_CHAOS:-1}" = "0" ]; then
    echo "rt chaos smoke: skipped (RT_CHAOS=0)"
else
    RT_CHAOS_SECS="${RT_CHAOS_SECS:-3}" \
    cargo run --release --offline -p st-experiments --bin repro -- \
        rt_chaos --quick --seed 42 --json - > "$SMOKE_DIR/chaos.json"
    [ "$(wc -l < "$SMOKE_DIR/chaos.json")" -eq 1 ] \
        || { echo "rt chaos smoke: expected exactly one JSON line" >&2; exit 1; }
    grep -q '"all_twin_replays_identical":1' "$SMOKE_DIR/chaos.json" \
        || { echo "rt chaos smoke: a sim twin diverged from the host action log" >&2; exit 1; }
    grep -q '"any_stall_detected":1' "$SMOKE_DIR/chaos.json" \
        || { echo "rt chaos smoke: no injected stall was detected" >&2; exit 1; }
    grep -q '"any_stall_recovered":1' "$SMOKE_DIR/chaos.json" \
        || { echo "rt chaos smoke: no stalled lane recovered" >&2; exit 1; }
fi

echo "== ledger smoke: the repo's benchmark, every workload once =="
# The BENCHMARK.json command with --smoke: st-ledger builds against the
# workspace crates from its own package and runs every workload in 0.5 s
# boxes plus one traced run, each checked by its oracle. A result that is
# not `correct`, or that counts a failed operation, fails the step (the
# timings themselves never gate here). The host workloads spin real
# threads, so RT_SMOKE=0 skips this step too.
if [ "${RT_SMOKE:-1}" = "0" ]; then
    echo "ledger smoke: skipped (RT_SMOKE=0)"
else
    cargo run --release --offline --quiet --manifest-path benches/ledger/Cargo.toml -- \
        --smoke > "$SMOKE_DIR/ledger.txt"
    [ -s "$SMOKE_DIR/ledger.txt" ] \
        || { echo "ledger smoke: no result lines" >&2; exit 1; }
    if grep -v '{"correct":true,"attempted":[0-9]*,"failed":0,' "$SMOKE_DIR/ledger.txt" >&2; then
        echo "ledger smoke: a workload was not correct or counted failures" >&2
        exit 1
    fi
fi

echo "== bench trend + loc budget (informational) =="
scripts/bench_trend.sh || true
scripts/loc_budget.sh || true

echo "== bench suite (smoke) + perf gate =="
# Measures the hot-path suite at smoke precision, then gates it against
# the newest committed BENCH_*.json (a no-op until one is committed).
cargo run --release --offline -p st-bench --bin bench-suite -- \
    --smoke --out "$SMOKE_DIR/bench.json" >/dev/null
scripts/perf_gate.sh "$SMOKE_DIR/bench.json"

echo "ci: all green"
