#!/usr/bin/env bash
# Tier-1 verification: what CI (and the roadmap) require to stay green.
#
#   scripts/tier1.sh            # build + full test suite
#   scripts/tier1.sh --smoke    # additionally run the smoke-scale
#                               # experiments and 2 s perfbench
#                               # triangles and serve-mixed runs as
#                               # end-to-end probes
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

    echo "== tier1: repro batch --scale smoke =="
    ./target/release/repro batch --scale smoke

    echo "== tier1: repro plan --scale smoke =="
    ./target/release/repro plan --scale smoke
    echo "== tier1: plan gates (BENCH_plan.json) =="
    gate BENCH_plan.json \
        --ok 'plan gates OK (counts match, auto within 10% of best forced)' \
        'counts_match == true | a forced plan disagreed with auto on a count' \
        'auto_within_10pct == true | auto plan more than 10% behind the best forced plan'

    echo "== tier1: repro containers --scale smoke =="
    ./target/release/repro containers --scale smoke
    echo "== tier1: container gates (BENCH_containers.json) =="
    gate BENCH_containers.json \
        --ok 'container gates OK (counts match, speedup >= 1.25x, auto-decline overhead {auto_decline_overhead_pct}%)' \
        'counts_match == true | container-path counts disagree with the knob forced off' \
        'run_heavy.speedup >= 1.25 | container speedup {run_heavy.speedup}x on run_heavy below 1.25x' \
        'clustered.speedup >= 1.25 | container speedup {clustered.speedup}x on clustered below 1.25x' \
        'auto_decline_overhead_pct <= 2.0 | uniform-sparse container-dispatch overhead {auto_decline_overhead_pct}% > 2%'

    echo "== tier1: repro algebra --scale smoke =="
    ./target/release/repro algebra --scale smoke
    echo "== tier1: algebra gates (BENCH_algebra.json) =="
    gate BENCH_algebra.json \
        --ok 'algebra gates OK (results match, materialize/count ratio {intersect_overhead_ratio}x)' \
        'results_match == true | a materialized set operation disagreed with the merge oracle' \
        'intersect_overhead_ratio <= 2.0 | materializing intersect {intersect_overhead_ratio}x slower than the count path (> 2.0x)'

    echo "== tier1: repro simjoin --scale smoke =="
    ./target/release/repro simjoin --scale smoke
    echo "== tier1: simjoin gates (BENCH_simjoin.json) =="
    gate BENCH_simjoin.json \
        --ok 'simjoin gates OK (pairs match, counters balance, cascade {cascade_speedup}x)' \
        'pairs_match == true | cascade survivor pairs differ from the prefix-filter baseline' \
        'counters_balance == true | simjoin counters do not account for every candidate' \
        'survivors_expected == true | survivor count differs from the corpus construction' \
        'cascade_speedup >= 1.4 | cascade speedup {cascade_speedup}x over prefix-only baseline below 1.4x'

    echo "== tier1: repro serve --scale smoke =="
    ./target/release/repro serve --scale smoke
    echo "== tier1: serve gates (BENCH_serve.json) =="
    gate BENCH_serve.json \
        --ok 'serve gates OK (oracle match, p99 {p99_ms}ms, max reader stall {max_reader_stall_ms}ms)' \
        'counts_match == true | serving results diverged from the offline replay oracle' \
        'p99_within_budget == true | serve read p99 {p99_ms}ms over budget' \
        'stall_within_budget == true | a reader stalled {max_reader_stall_ms}ms (> 10ms) waiting for an epoch slot'

    echo "== tier1: machine-profile loader =="
    profile=$(mktemp -t fesia-profile-XXXXXX.json)
    printf '{"version": 1}\n' > "$profile"
    printf '1\n2\n3\n' > "${profile%.json}.txt"
    ./target/release/fesia build "${profile%.json}.txt" "${profile%.json}.fsia" > /dev/null
    FESIA_PROFILE="$profile" ./target/release/fesia info "${profile%.json}.fsia" \
        | grep -q "profile=loaded v1" || {
        echo "tier1: FAIL — planner did not load a version-1 profile"
        rm -f "$profile" "${profile%.json}.txt" "${profile%.json}.fsia"
        exit 1
    }
    rm -f "$profile" "${profile%.json}.txt" "${profile%.json}.fsia"
    echo "profile smoke OK (a version-1 profile loads)"

    # The computed path (triangles) and the served read path (serve-mixed):
    # each must answer every operation correctly.
    for workload in triangles serve-mixed; do
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
