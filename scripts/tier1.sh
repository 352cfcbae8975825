#!/usr/bin/env bash
# Tier-1 verification: what CI (and the roadmap) require to stay green.
#
#   scripts/tier1.sh            # build + full test suite
#   scripts/tier1.sh --smoke    # additionally run the smoke-scale
#                               # experiments and 2 s perfbench
#                               # triangles, serve-mixed and simjoin
#                               # runs as end-to-end probes
#
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo fmt --check =="
cargo fmt --check

echo "== tier1: cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: cargo clippy --features serve =="
cargo clippy --workspace --all-targets --features serve -- -D warnings

echo "== tier1: cargo build --release (--features serve) =="
cargo build --release --features serve

echo "== tier1: cargo test -q =="
cargo test -q

echo "== tier1: cargo test -q --features serve (feature-gated surfaces) =="
cargo test -q -p fesia-cli -p fesia-bench --features serve

echo "== tier1: cargo doc --no-deps =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q --features serve

if [[ "${1:-}" == "--smoke" ]]; then
    # Every gate reads its JSON through one helper: `PATH OP VALUE |
    # failure message`, with `{PATH}` replaced by the field's value.
    gate() { python3 scripts/bench_gate.py "$@"; }
    # Smoke-scale runs write their BENCH_*.json here, never over the
    # committed standard-scale figures at the repo root.
    smoke=target/repro-smoke

    echo "== tier1: repro batch --scale smoke =="
    ./target/release/repro batch --scale smoke

    echo "== tier1: repro plan --scale smoke =="
    ./target/release/repro plan --scale smoke
    echo "== tier1: plan gates ($smoke/BENCH_plan.json) =="
    gate "$smoke/BENCH_plan.json" \
        --ok 'plan gates OK (counts match, auto within 10% of best explicit)' \
        'counts_match == true | an explicit plan disagreed with auto on a count' \
        'auto_within_10pct == true | auto plan more than 10% behind the best explicit plan'

    echo "== tier1: repro containers --scale smoke =="
    ./target/release/repro containers --scale smoke
    echo "== tier1: container gates ($smoke/BENCH_containers.json) =="
    gate "$smoke/BENCH_containers.json" \
        --ok 'container gates OK (counts match, speedup >= 1.25x, auto-decline overhead {auto_decline_overhead_pct}%)' \
        'counts_match == true | plain, container and hash plans or the four ops disagree on a count' \
        'run_heavy.speedup >= 1.25 | container speedup {run_heavy.speedup}x on run_heavy below 1.25x' \
        'clustered.speedup >= 1.25 | container speedup {clustered.speedup}x on clustered below 1.25x' \
        'auto_decline_overhead_pct <= 2.0 | uniform-sparse container-dispatch overhead {auto_decline_overhead_pct}% > 2%'

    echo "== tier1: repro algebra --scale smoke =="
    ./target/release/repro algebra --scale smoke
    echo "== tier1: algebra gates ($smoke/BENCH_algebra.json) =="
    gate "$smoke/BENCH_algebra.json" \
        --ok 'algebra gates OK (results match, materialize/count ratio {intersect_overhead_ratio}x, union/xor vs merge {union_vs_merge}/{xor_vs_merge})' \
        'results_match == true | a materialized set operation disagreed with the merge oracle' \
        'intersect_overhead_ratio <= 2.0 | materializing intersect {intersect_overhead_ratio}x slower than the count path (> 2.0x)' \
        'union_vs_merge >= 0.3 | union at {union_vs_merge}x of the merge baseline (< 0.3x)' \
        'xor_vs_merge >= 0.3 | xor at {xor_vs_merge}x of the merge baseline (< 0.3x)'

    echo "== tier1: repro simjoin --scale smoke =="
    ./target/release/repro simjoin --scale smoke
    echo "== tier1: simjoin gates ($smoke/BENCH_simjoin.json) =="
    gate "$smoke/BENCH_simjoin.json" \
        --ok 'simjoin gates OK (pairs match, counters balance, cascade {cascade_speedup}x, XOR filter rejects {bitmap_rejected_share})' \
        'pairs_match == true | cascade survivor pairs differ from the prefix-filter baseline' \
        'counters_balance == true | simjoin counters do not account for every candidate' \
        'survivors_expected == true | survivor count differs from the corpus construction' \
        'cascade_speedup >= 1.4 | cascade speedup {cascade_speedup}x over prefix-only baseline below 1.4x' \
        'bitmap_rejected_share > 0 | the XOR bitmap filter rejected no candidate'

    echo "== tier1: repro serve --scale smoke =="
    ./target/release/repro serve --scale smoke
    echo "== tier1: serve gates ($smoke/BENCH_serve.json) =="
    gate "$smoke/BENCH_serve.json" \
        --ok 'serve gates OK (oracle match, p99 {p99_ms}ms, max reader stall {max_reader_stall_ms}ms)' \
        'counts_match == true | serving results diverged from the offline replay oracle' \
        'p99_within_budget == true | serve read p99 {p99_ms}ms over budget' \
        'stall_within_budget == true | a reader stalled {max_reader_stall_ms}ms (> 10ms) waiting for an epoch slot'

    # The computed path (triangles), the served read path (serve-mixed)
    # and the similarity join (simjoin): each must answer every operation
    # correctly.
    for workload in triangles serve-mixed simjoin; do
        echo "== tier1: perfbench $workload (2 s, seed 1) =="
        result=$(mktemp -t fesia-perfbench-XXXXXX.json)
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -1 > "$result"
        gate "$result" --ok "perfbench $workload OK (correct, 0 failed)" \
            "correct == true | perfbench $workload result not correct" \
            "failed == 0 | perfbench $workload result not correct" || {
            echo "  result: $(cat "$result")"
            rm -f "$result"
            exit 1
        }
        rm -f "$result"
    done
fi

echo "== tier1: OK =="
