//! # fesia-obs
//!
//! Always-on runtime metrics for the FESIA workspace.
//!
//! `fesia-core::stats` answers *offline* questions — run a diagnostic
//! pass instead of the production path and inspect the filter. This
//! crate answers the *online* ones: which strategy production queries
//! actually take, what the bitmap filter's survivor rate looks like
//! live, whether the executor pool is balancing or starving — without
//! perturbing the hot paths being observed.
//!
//! ## Cost model
//!
//! * [`Counter`] is a single `fetch_add(1, Relaxed)` — no fences, no
//!   contention beyond the cache line itself. Hot loops accumulate
//!   locally and publish once per batch/chunk/region.
//! * [`Histogram`] is 64 log2 buckets; recording is one `leading_zeros`
//!   plus one relaxed `fetch_add`. Per-call cycle timing is *sampled*
//!   (callers time 1-in-N calls) so the rdtsc cost stays off the common
//!   path.
//!
//! The `repro obs` benchmark measures the end-to-end overhead of the
//! instrumented batch path against an uninstrumented replica and holds
//! it within 5%.
//!
//! ## Usage
//!
//! ```
//! let before = fesia_obs::metrics().snapshot();
//! fesia_obs::metrics().batch_pairs.add(128);
//! let delta = fesia_obs::metrics().snapshot().delta(&before);
//! assert_eq!(delta.batch_pairs, 128);
//! println!("{}", delta.report());
//! ```

pub mod env;

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter with relaxed ordering.
///
/// Reads ([`Counter::get`]) may observe increments out of order across
/// counters; snapshots are therefore approximate under concurrency,
/// which is the correct trade for a counter that must cost one
/// uncontended atomic add on the fast path.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (usable in `static` initializers).
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Increment by one; returns the *previous* value, which callers use
    /// for cheap 1-in-N sampling (`inc() & 63 == 0`).
    #[inline]
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Increment by `n` (hot loops accumulate locally and publish once).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the counter to `v` if it is currently lower (a running
    /// maximum, e.g. the worst reader stall observed). Fields updated
    /// this way are high-water marks: a windowed
    /// [`MetricsSnapshot::delta`] of them is not meaningful — gates read
    /// the absolute value.
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`] — one per power of two of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log2-bucketed histogram: bucket `k` counts values in
/// `[2^k, 2^(k+1))` (bucket 0 also holds zero).
///
/// Intended for cycle counts and per-claim chunk counts, where the
/// order of magnitude is the signal and exact quantiles are not worth a
/// per-event CAS loop.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index of a value: `floor(log2(value))`, with 0 mapping to 0.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (63 - value.max(1).leading_zeros()) as usize
}

impl Histogram {
    /// A zeroed histogram (usable in `static` initializers).
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    /// Record one observation of `value`.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets }
    }
}

/// A point-in-time copy of a [`Histogram`]'s buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `buckets[k]` = observations with `floor(log2(value)) == k`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Bucket-wise difference against an earlier snapshot (wrapping, so
    /// a stale baseline can never panic).
    pub fn delta(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (k, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[k].wrapping_sub(baseline.buckets[k]);
        }
        HistogramSnapshot { buckets }
    }

    /// An upper bound on the `q`-quantile (`0.0 < q <= 1.0`) of the
    /// recorded values: the inclusive upper edge `2^(k+1) - 1` of the
    /// first bucket at which the cumulative count reaches
    /// `ceil(q * total)`. Returns 0 for an empty histogram.
    ///
    /// Log2 bucketing means the true quantile lies within 2x below the
    /// returned value — the right direction for a latency gate, which
    /// must never under-report a tail.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if k >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (k + 1)) - 1
                };
            }
        }
        u64::MAX
    }

    /// Upper bound on the median — see [`HistogramSnapshot::percentile`].
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// Upper bound on the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Upper bound on the 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Render the non-empty buckets as `2^k:count` pairs.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(k, c)| format!("2^{k}:{c}"))
            .collect();
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join(" ")
        }
    }

    /// Non-empty buckets as a JSON array of `[bucket, count]` pairs.
    pub fn to_json(&self) -> String {
        let parts: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(k, c)| format!("[{k}, {c}]"))
            .collect();
        format!("[{}]", parts.join(", "))
    }
}

/// Cheap monotonic cycle source for duration histograms (rdtsc on
/// x86_64; a nanosecond clock elsewhere). Differences between two calls
/// on the same thread are meaningful; absolute values are not.
#[inline]
pub fn now_cycles() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: rdtsc has no preconditions on x86_64.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        use std::time::Instant;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Defines [`Metrics`] / [`MetricsSnapshot`] from a single field list so
/// the registry, snapshot, delta, report, and JSON renderings can never
/// drift apart.
macro_rules! define_metrics {
    (
        counters { $($cname:ident : $cdoc:literal,)+ }
        histograms { $($hname:ident : $hdoc:literal,)+ }
    ) => {
        /// The process-wide metric registry; obtain it via [`metrics`].
        ///
        /// Every field is independently updatable with relaxed ordering;
        /// see the crate docs for the cost model.
        #[derive(Debug)]
        pub struct Metrics {
            $(#[doc = $cdoc] pub $cname: Counter,)+
            $(#[doc = $hdoc] pub $hname: Histogram,)+
        }

        impl Default for Metrics {
            fn default() -> Self {
                Metrics::new()
            }
        }

        impl Metrics {
            /// A zeroed registry (usable in `static` initializers).
            pub const fn new() -> Metrics {
                Metrics {
                    $($cname: Counter::new(),)+
                    $($hname: Histogram::new(),)+
                }
            }

            /// Copy every counter and histogram at (approximately) one
            /// point in time.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($cname: self.$cname.get(),)+
                    $($hname: self.$hname.snapshot(),)+
                }
            }
        }

        /// A point-in-time copy of [`Metrics`]; subtract two with
        /// [`MetricsSnapshot::delta`] to isolate one workload's events.
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $(#[doc = $cdoc] pub $cname: u64,)+
            $(#[doc = $hdoc] pub $hname: HistogramSnapshot,)+
        }

        impl MetricsSnapshot {
            /// Field-wise difference against an earlier snapshot.
            pub fn delta(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($cname: self.$cname.wrapping_sub(baseline.$cname),)+
                    $($hname: self.$hname.delta(&baseline.$hname),)+
                }
            }

            /// Every counter as `(name, value)`, in declaration order.
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($cname), self.$cname),)+]
            }

            /// Every histogram as `(name, snapshot)`, in declaration order.
            pub fn histograms(&self) -> Vec<(&'static str, &HistogramSnapshot)> {
                vec![$((stringify!($hname), &self.$hname),)+]
            }

            /// Human-readable report: non-zero counters aligned in
            /// declaration order, then non-empty histograms.
            pub fn report(&self) -> String {
                let mut out = String::new();
                let width = [$(stringify!($cname).len(),)+ $(stringify!($hname).len(),)+]
                    .into_iter()
                    .max()
                    .unwrap_or(0);
                for (name, value) in self.counters() {
                    if value != 0 {
                        out.push_str(&format!("{name:width$}  {value}\n"));
                    }
                }
                for (name, h) in self.histograms() {
                    if h.total() != 0 {
                        out.push_str(&format!("{name:width$}  {}\n", h.render()));
                    }
                }
                if out.is_empty() {
                    out.push_str("(no events recorded)\n");
                }
                out
            }

            /// The whole snapshot as a JSON object (counters as numbers,
            /// histograms as `[bucket, count]` pair lists).
            pub fn to_json(&self) -> String {
                let mut parts = Vec::new();
                $(parts.push(format!("\"{}\": {}", stringify!($cname), self.$cname));)+
                $(parts.push(format!("\"{}\": {}", stringify!($hname), self.$hname.to_json()));)+
                format!("{{{}}}", parts.join(", "))
            }
        }
    };
}

define_metrics! {
    counters {
        intersect_interleaved:
            "Two-phase intersections dispatched in the interleaved form.",
        // These two sit in the slots of two deleted counters, so every
        // other counter keeps its offset and cache line: perfbench
        // serve-mixed's setup time and throughput moved with the
        // placement of the counters.
        exec_pinned_tasks:
            "Tasks executed through the executor's shard-pinned task queues.",
        simjoin_bitmap_rejected:
            "Candidates rejected by the similarity join's XOR bitmap filter bound, before any count.",
        plan_plain:
            "Planner decisions that selected the plain (interleaved) two-phase form.",
        plan_pipelined:
            "Always zero: the pipelined plan was removed. Kept so readers of the plan census (perfbench) keep their schema.",
        plan_pruned:
            "Always zero: the summary-pruned plan was removed. Kept so readers of the plan census (perfbench) keep their schema.",
        plan_hash:
            "Planner decisions that selected the hash-probe strategy.",
        plan_gallop:
            "Always zero: the galloping fallback plan was removed. Kept so readers of the plan census (perfbench) keep their schema.",
        strategy_merge:
            "Adaptive (auto_count) intersections routed to the two-phase merge strategy.",
        strategy_hash:
            "Adaptive (auto_count) intersections routed to the hash-probe strategy (includes trivially-empty inputs, which probe zero elements).",
        hash_probe_elements:
            "Elements probed against a bitmap by the hash-probe strategy.",
        kway_calls:
            "k-way intersections (count or materialize), any arity.",
        kway_probe:
            "k-way intersections (k >= 3) that probed the smallest set's members against the others.",
        kway_container:
            "k-way intersections (k >= 3) that ANDed the operands' container ranges in the value domain.",
        kway_scan:
            "k-way intersections (k >= 3) that folded the hashed bitmaps and verified surviving segments.",
        batch_calls:
            "Batched-intersection region submissions.",
        batch_pairs:
            "Set pairs counted through the batch path.",
        batch_pairs_resident:
            "Batch pairs that ran directly after another pair sharing an operand on the same worker (cache-resident scheduling hits).",
        par_intersect_calls:
            "Single-pair intersections partitioned across pool threads.",
        index_queries:
            "Conjunctive keyword queries executed against a FESIA index.",
        graph_triangle_runs:
            "Triangle-counting passes over a FESIA-encoded graph.",
        graph_edge_intersections:
            "Per-edge neighborhood intersections issued by triangle counting.",
        exec_regions:
            "Parallel regions submitted to an executor pool.",
        exec_regions_inline:
            "Regions run inline on the submitter (single chunk or single participant).",
        exec_chunks_claimed:
            "Chunks claimed from region cursors, across all pools and workers.",
        exec_ticket_rejections:
            "Participation attempts rejected because a region was at its thread cap.",
        exec_worker_parks:
            "Times a pool worker went to sleep on the wake condvar.",
        exec_worker_wakes:
            "Times a pool worker woke from the wake condvar.",
        plan_compressed:
            "Always zero: the compressed plan was removed. Kept so readers of the plan census (perfbench) keep their schema.",
        algebra_union:
            "Materializing union operations executed through the planner-driven set-algebra path.",
        algebra_difference:
            "Materializing difference operations executed through the planner-driven set-algebra path.",
        algebra_xor:
            "Materializing symmetric-difference operations executed through the planner-driven set-algebra path.",
        algebra_emitted:
            "Elements emitted by materializing set-algebra operations (all four ops).",
        index_boolean_queries:
            "Boolean (AND/OR/NOT) queries executed against a FESIA index.",
        graph_neighborhood_unions:
            "Two-hop neighborhood unions computed over a FESIA-encoded graph.",
        plan_container:
            "Planner decisions that selected the per-range container directory.",
        intersect_container:
            "Set operations dispatched through the container directory.",
        container_ranges_array:
            "Array-container ranges touched by container-directory operations.",
        container_ranges_bitmap:
            "Word-bitmap-container ranges touched by container-directory operations.",
        container_ranges_run:
            "Run-container ranges touched by container-directory operations.",
        container_word_ops:
            "64-bit word operations executed by container word-bitmap kernels.",
        simjoin_candidates:
            "Candidate pairs generated by the similarity-join prefix filter.",
        simjoin_early_exited:
            "Candidates rejected by the exact count: they passed the XOR filter (or the join built none) and fell short of the threshold.",
        simjoin_verified:
            "Candidates verified as join results by an exact threshold count.",
        snapshot_pins:
            "Epoch-pinned snapshots taken by readers.",
        snapshot_publishes:
            "New store states published by writers (atomic pointer swaps).",
        snapshot_retired:
            "Superseded store states reclaimed after their epoch drained.",
        snapshot_pin_stall_max_cycles:
            "Worst cycles one reader spent waiting for a free epoch slot (a high-water mark, not a sum; 0 means readers never stalled).",
        serve_reads:
            "Queries (COUNT/AND/BOOL) answered by the serving layer.",
        serve_writes:
            "Mutations (ADD/DEL) applied by the serving layer's shard write logs.",
        serve_rebuilds:
            "Off-write-path set rebuilds scheduled by the serving layer when a delta outgrew the rebuild fraction.",
    }
    histograms {
        intersect_cycles:
            "Cycles per two-phase intersection, sampled 1-in-64 calls.",
        exec_chunks_per_claim:
            "Chunks claimed per participation burst (balance indicator: all-in-one-bucket means no stealing happened).",
        exec_submit_wait_cycles:
            "Cycles a region submitter spent blocked waiting for stragglers after running out of chunks to claim.",
        serve_read_cycles:
            "Cycles per serving-layer query, snapshot pin to response (recorded on every read — serving latency gates need real tails, not samples).",
        serve_write_cycles:
            "Cycles per serving-layer mutation, log append to published version.",
    }
}

/// The process-wide metric registry.
pub fn metrics() -> &'static Metrics {
    static GLOBAL: Metrics = Metrics::new();
    &GLOBAL
}

/// Sample mask for per-call cycle timing: time the call when
/// `counter.inc() & SAMPLE_MASK == 0` (1 in 64).
pub const SAMPLE_MASK: u64 = 63;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        assert_eq!(c.inc(), 0);
        assert_eq!(c.inc(), 1);
        c.add(40);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn counter_concurrent_increments_all_land() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 900, 1024, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.total(), 7);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[9], 1);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.buckets[63], 1);
    }

    #[test]
    fn counter_record_max_is_a_high_water_mark() {
        let c = Counter::new();
        c.record_max(10);
        c.record_max(3);
        assert_eq!(c.get(), 10);
        c.record_max(99);
        assert_eq!(c.get(), 99);
    }

    #[test]
    fn percentiles_read_the_log2_buckets() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().p50(), 0, "empty histogram");
        // 99 fast observations in [8, 16), one slow one in [1024, 2048).
        for _ in 0..99 {
            h.record(9);
        }
        h.record(1_500);
        let s = h.snapshot();
        assert_eq!(s.p50(), 15); // upper edge of bucket 3
        assert_eq!(s.p99(), 15); // rank 99 still lands in the fast bucket
        assert_eq!(s.p999(), 2_047); // the tail observation
        assert_eq!(s.percentile(1.0), 2_047);
        // A quantile never under-reports: it is >= every recorded value
        // at or below its rank.
        assert!(s.p50() >= 9);
    }

    #[test]
    fn percentile_saturates_at_the_top_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.snapshot().p50(), u64::MAX);
    }

    #[test]
    fn snapshot_delta_isolates_a_window() {
        let m = Metrics::new();
        m.batch_pairs.add(5);
        let before = m.snapshot();
        m.batch_pairs.add(7);
        m.intersect_cycles.record(100);
        let d = m.snapshot().delta(&before);
        assert_eq!(d.batch_pairs, 7);
        assert_eq!(d.intersect_cycles.total(), 1);
        assert_eq!(d.batch_calls, 0);
    }

    #[test]
    fn report_shows_only_nonzero_fields() {
        let m = Metrics::new();
        let empty = m.snapshot().report();
        assert!(empty.contains("no events recorded"), "{empty}");
        m.strategy_hash.add(3);
        m.exec_submit_wait_cycles.record(1 << 20);
        let r = m.snapshot().report();
        assert!(r.contains("strategy_hash"), "{r}");
        assert!(r.contains("2^20:1"), "{r}");
        assert!(!r.contains("strategy_merge"), "{r}");
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let m = Metrics::new();
        m.kway_calls.add(2);
        m.intersect_cycles.record(5);
        let j = m.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"kway_calls\": 2"), "{j}");
        assert!(j.contains("\"intersect_cycles\": [[2, 1]]"), "{j}");
        // Every declared field appears exactly once.
        for (name, _) in m.snapshot().counters() {
            assert_eq!(j.matches(&format!("\"{name}\"")).count(), 1, "{name}");
        }
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = metrics() as *const Metrics;
        let b = metrics() as *const Metrics;
        assert_eq!(a, b);
    }

    #[test]
    fn now_cycles_is_monotonic_enough() {
        let a = now_cycles();
        let b = now_cycles();
        assert!(b >= a);
    }
}
