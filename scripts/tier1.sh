#!/usr/bin/env bash
# Tier-1 verification: what CI (and the roadmap) require to stay green.
#
#   scripts/tier1.sh            # build + full test suite
#   scripts/tier1.sh --smoke    # additionally run the smoke-scale
#                               # experiments and a 2 s perfbench
#                               # triangles run as end-to-end probes
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
    echo "== tier1: repro batch --scale smoke =="
    ./target/release/repro batch --scale smoke
    echo "== tier1: repro prune --scale smoke =="
    ./target/release/repro prune --scale smoke
    echo "== tier1: prune gates (BENCH_prune.json) =="
    grep -q '"counts_match": true' BENCH_prune.json || {
        echo "tier1: FAIL — pruned and unpruned counts disagree"
        exit 1
    }
    overhead=$(sed -n 's/.*"small_dense_overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' BENCH_prune.json | head -1)
    awk -v o="$overhead" 'BEGIN { exit !(o <= 2.0) }' || {
        echo "tier1: FAIL — small-dense prune overhead ${overhead}% > 2%"
        exit 1
    }
    echo "prune gates OK (counts match, small-dense overhead ${overhead}%)"

    echo "== tier1: repro plan --scale smoke =="
    ./target/release/repro plan --scale smoke
    echo "== tier1: plan gates (BENCH_plan.json) =="
    grep -q '"counts_match": true' BENCH_plan.json || {
        echo "tier1: FAIL — a forced plan disagreed with auto on a count"
        exit 1
    }
    grep -q '"auto_within_10pct": true' BENCH_plan.json || {
        echo "tier1: FAIL — auto plan more than 10% behind the best forced plan"
        exit 1
    }
    echo "plan gates OK (counts match, auto within 10% of best forced)"

    echo "== tier1: repro containers --scale smoke =="
    ./target/release/repro containers --scale smoke
    echo "== tier1: container gates (BENCH_containers.json) =="
    grep -q '"counts_match": true,' BENCH_containers.json || {
        echo "tier1: FAIL — container-path counts disagree with the knob forced off"
        exit 1
    }
    for wl in run_heavy clustered; do
        speedup=$(sed -n "s/.*\"$wl\": {[^}]*\"speedup\": \([0-9.]*\).*/\1/p" BENCH_containers.json | head -1)
        awk -v s="$speedup" 'BEGIN { exit !(s >= 1.25) }' || {
            echo "tier1: FAIL — container speedup ${speedup}x on $wl below 1.25x"
            exit 1
        }
    done
    overhead=$(sed -n 's/.*"auto_decline_overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' BENCH_containers.json | head -1)
    awk -v o="$overhead" 'BEGIN { exit !(o <= 2.0) }' || {
        echo "tier1: FAIL — uniform-sparse container-dispatch overhead ${overhead}% > 2%"
        exit 1
    }
    echo "container gates OK (counts match, speedup >= 1.25x, auto-decline overhead ${overhead}%)"

    echo "== tier1: repro algebra --scale smoke =="
    ./target/release/repro algebra --scale smoke
    echo "== tier1: algebra gates (BENCH_algebra.json) =="
    grep -q '"results_match": true' BENCH_algebra.json || {
        echo "tier1: FAIL — a materialized set operation disagreed with the merge oracle"
        exit 1
    }
    ratio=$(sed -n 's/.*"intersect_overhead_ratio": \([0-9.]*\).*/\1/p' BENCH_algebra.json | head -1)
    awk -v r="$ratio" 'BEGIN { exit !(r <= 2.0) }' || {
        echo "tier1: FAIL — materializing intersect ${ratio}x slower than the count path (> 2.0x)"
        exit 1
    }
    echo "algebra gates OK (results match, materialize/count ratio ${ratio}x)"

    echo "== tier1: repro simjoin --scale smoke =="
    ./target/release/repro simjoin --scale smoke
    echo "== tier1: simjoin gates (BENCH_simjoin.json) =="
    grep -q '"pairs_match": true' BENCH_simjoin.json || {
        echo "tier1: FAIL — cascade survivor pairs differ from the prefix-filter baseline"
        exit 1
    }
    grep -q '"counters_balance": true' BENCH_simjoin.json || {
        echo "tier1: FAIL — simjoin counters do not account for every candidate"
        exit 1
    }
    grep -q '"survivors_expected": true' BENCH_simjoin.json || {
        echo "tier1: FAIL — survivor count differs from the corpus construction"
        exit 1
    }
    speedup=$(sed -n 's/.*"cascade_speedup": \([0-9.]*\).*/\1/p' BENCH_simjoin.json | head -1)
    awk -v s="$speedup" 'BEGIN { exit !(s >= 1.4) }' || {
        echo "tier1: FAIL — cascade speedup ${speedup}x over prefix-only baseline below 1.4x"
        exit 1
    }
    echo "simjoin gates OK (pairs match, counters balance, cascade ${speedup}x)"

    echo "== tier1: repro serve --scale smoke =="
    ./target/release/repro serve --scale smoke
    echo "== tier1: serve gates (BENCH_serve.json) =="
    grep -q '"counts_match": true' BENCH_serve.json || {
        echo "tier1: FAIL — serving results diverged from the offline replay oracle"
        exit 1
    }
    grep -q '"p99_within_budget": true' BENCH_serve.json || {
        p99=$(sed -n 's/.*"p99_ms": \([0-9.]*\).*/\1/p' BENCH_serve.json | head -1)
        echo "tier1: FAIL — serve read p99 ${p99}ms over budget"
        exit 1
    }
    grep -q '"stall_within_budget": true' BENCH_serve.json || {
        stall=$(sed -n 's/.*"max_reader_stall_ms": \([0-9.]*\).*/\1/p' BENCH_serve.json | head -1)
        echo "tier1: FAIL — a reader stalled ${stall}ms (> 10ms) waiting for an epoch slot"
        exit 1
    }
    p99=$(sed -n 's/.*"p99_ms": \([0-9.]*\).*/\1/p' BENCH_serve.json | head -1)
    stall=$(sed -n 's/.*"max_reader_stall_ms": \([0-9.]*\).*/\1/p' BENCH_serve.json | head -1)
    echo "serve gates OK (oracle match, p99 ${p99}ms, max reader stall ${stall}ms)"

    echo "== tier1: fesia tune --quick round-trip =="
    profile=$(mktemp -t fesia-profile-XXXXXX.json)
    ./target/release/fesia tune --quick --profile "$profile" | grep -q "reload verified" || {
        echo "tier1: FAIL — tune did not write a reloadable profile"
        rm -f "$profile"
        exit 1
    }
    printf '1\n2\n3\n' > "${profile%.json}.txt"
    ./target/release/fesia build "${profile%.json}.txt" "${profile%.json}.fsia" > /dev/null
    FESIA_PROFILE="$profile" ./target/release/fesia info "${profile%.json}.fsia" \
        | grep -q "profile=loaded v" || {
        echo "tier1: FAIL — planner did not load the tuned profile"
        rm -f "$profile" "${profile%.json}.txt" "${profile%.json}.fsia"
        exit 1
    }
    rm -f "$profile" "${profile%.json}.txt" "${profile%.json}.fsia"
    echo "tune smoke OK (profile written, reloaded by the planner)"

    echo "== tier1: perfbench triangles (2 s, seed 1) =="
    result=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload triangles --seed 1 --seconds 2 --trace 0 | tail -1)
    python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
' "$result" || {
        echo "tier1: FAIL — perfbench triangles result not correct: $result"
        exit 1
    }
    echo "perfbench triangles OK (correct, 0 failed)"
fi

echo "== tier1: OK =="
