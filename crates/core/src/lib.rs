//! # fesia-core
//!
//! A faithful Rust implementation of **FESIA** (Zhang, Lu, Spampinato,
//! Franchetti — *"FESIA: A Fast and SIMD-Efficient Set Intersection
//! Approach on Modern CPUs"*, ICDE 2020): set intersection in
//! `O(n/sqrt(w) + r)` time via a segmented-bitmap filter and runtime-
//! dispatched specialized SIMD kernels.
//!
//! ## Quick start
//!
//! ```
//! use fesia_core::{FesiaParams, SegmentedSet};
//!
//! let params = FesiaParams::auto();
//! let a = SegmentedSet::build(&[1, 4, 15, 21, 32, 34], &params).unwrap();
//! let b = SegmentedSet::build(&[2, 6, 12, 16, 21, 23], &params).unwrap();
//! assert_eq!(fesia_core::intersect_count(&a, &b), 1); // {21}
//! assert_eq!(fesia_core::intersect(&a, &b), vec![21]);
//! ```
//!
//! ## Architecture
//!
//! * [`SegmentedSet`] — the offline-built encoding (bitmap + segment
//!   metadata + reordered elements), see [`set`] and [`layout`].
//! * [`kernels::KernelTable`] — ahead-of-time compiled specialized SIMD
//!   kernels with jump-table dispatch, per ISA and sampling stride.
//! * [`intersect_count`] / [`intersect()`] — the two-phase online algorithm
//!   (bitmap filter, then per-segment kernels).
//! * [`hash_probe_count`] — the hash-style strategy for heavily skewed
//!   inputs (`FESIAhash`), and [`auto_count`] which picks a strategy from
//!   the size ratio as §VI prescribes.
//! * [`algebra`] — planner-driven materializing set algebra:
//!   [`intersect()`], [`union()`], [`difference()`], [`xor()`], all
//!   sharing one visitor-kernel body per operation
//!   ([`kernels::visit`]).
//! * [`kway_count`] — k-way intersection over `k` bitmaps.
//! * [`par_intersect_count`] — multicore partitioning of the segment space.
//! * [`plan::IntersectPlanner`] — the unified cost model every entry
//!   point asks for an explicit [`plan::IntersectPlan`]: a pure function
//!   of the operands' [`plan::SetSummary`]s with fixed thresholds.

pub mod algebra;
pub mod batch;
pub mod container;
pub mod dynamic;
pub mod error;
pub mod hash;
pub mod intersect;
pub mod kernels;
pub mod kway;
pub mod layout;
pub mod mmap;
pub mod parallel;
pub mod params;
pub mod plan;
pub mod serialize;
pub mod set;
pub mod simjoin;
pub mod snapshot;
pub mod stats;
pub mod tuning;
pub mod u64set;

pub use algebra::{difference, set_op, set_op_count, set_op_planned, union, xor};
pub use batch::{
    batch_count, batch_count_pairs, batch_count_pairs_on, batch_op_pairs, batch_op_pairs_on,
};
pub use container::{ContainerKind, ContainerStats, ContainerTier};
pub use dynamic::{DynamicSet, LiveQuery};
pub use error::{BuildError, MAX_ELEMENT};
pub use intersect::{
    auto_count, auto_count_planned, auto_count_with, default_table, execute_plan_count,
    hash_probe_count, intersect, intersect_count, intersect_count_at_least,
    intersect_count_bounded_planned, intersect_count_breakdown, intersect_count_interleaved_with,
    intersect_count_with, Breakdown,
};
pub use kernels::visit::{CountVisitor, EmitVisitor, FnVisitor, SegmentVisitor, SetOp};
pub use kernels::KernelTable;
pub use kway::{
    execute_kway_count, execute_kway_intersect, kway_count, kway_count_planned, kway_count_with,
    kway_intersect, kway_intersect_planned, kway_intersect_with, kway_union,
};
pub use mmap::{MappedFile, Section};
pub use parallel::{par_intersect_count, par_intersect_count_on};
pub use params::{FesiaParams, SimjoinParams};
pub use plan::{
    profile_status, should_container_summaries, IntersectPlan, IntersectPlanner, KwayPlan,
    KwayStrategy, SetSummary, ThresholdPlan,
};
pub use serialize::{deserialize_many, deserialize_many_mapped, serialize_many, DecodeError};
pub use set::SegmentedSet;
pub use simjoin::{
    candidate_pairs, candidate_pairs_self, join, join_with, self_join, self_join_with,
    simjoin_params, SimjoinResult, SimjoinStats, Threshold,
};
pub use snapshot::{SetRef, SetStore, SetVersion, Snapshot, StoreState, EPOCH_SLOTS};
pub use stats::{bit_collision_rate, filter_stats, survivor_segments, FilterStats, SegmentStats};
pub use tuning::{tune, tune_grid, TuneResult};
pub use u64set::{intersect_count64, intersect_count64_with, Fesia64Set};

pub use fesia_simd::mask::{LaneWidth, MaskOp};
pub use fesia_simd::SimdLevel;
