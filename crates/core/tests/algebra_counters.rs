//! Exact algebra counter deltas.
//!
//! The `fesia-obs` counters are process-wide, and every planner-driven
//! operation in the crate's unit tests bumps them. This file runs in its
//! own test process, so the deltas below see only this test's work. Keep
//! it the only test in this file: a second one running in parallel would
//! make the equalities racy again.

use fesia_core::{difference, union, xor, FesiaParams, SegmentedSet};

fn build(v: &[u32]) -> SegmentedSet {
    SegmentedSet::build(v, &FesiaParams::auto()).unwrap()
}

#[test]
fn algebra_counters_record_ops_and_emissions() {
    let a = build(&[1, 2, 3, 4]);
    let b = build(&[3, 4, 5]);
    let before = fesia_obs::metrics().snapshot();
    let u = union(&a, &b);
    let d = difference(&a, &b);
    let x = xor(&a, &b);
    let delta = fesia_obs::metrics().snapshot().delta(&before);
    assert_eq!(delta.algebra_union, 1);
    assert_eq!(delta.algebra_difference, 1);
    assert_eq!(delta.algebra_xor, 1);
    assert_eq!(delta.algebra_emitted, (u.len() + d.len() + x.len()) as u64);
    assert_eq!(delta.strategy_hash + delta.strategy_merge, 3);
}
