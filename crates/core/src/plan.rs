//! The `IntersectPlanner`: one cost model behind every intersection
//! entry point.
//!
//! FESIA's value comes from picking the right execution shape per input
//! (paper §IV–VI): the segmented-bitmap two-phase merge for comparable
//! sizes, `FESIAhash` probing for heavy skew and for large sparse pairs,
//! and per-range containers for dense value domains. This module
//! centralizes those choices — Roaring-style dispatch by a simple size
//! and density rule — so every caller
//! (pairwise, batch, parallel, k-way, index, graph) requests an explicit
//! [`IntersectPlan`] from the same selector, and every strategy plugs in
//! at exactly one seam.
//!
//! Selection layers, lowest priority first:
//!
//! 1. built-in defaults ([`crate::params::ContainerParams`],
//!    [`crate::params::DynamicParams`]);
//! 2. a [`MachineProfile`] file, loaded from `FESIA_PROFILE` or
//!    `~/.fesia/profile.json`;
//! 3. `FESIA_*` environment knobs, including `FESIA_PLAN` which forces
//!    one strategy outright;
//! 4. runtime setters ([`crate::set_container_params`],
//!    [`set_plan_mode`]).
//!
//! Every plan decision is recorded in the `fesia-obs` `plan_*` counters.

use crate::kernels::visit::SetOp;
use crate::params::{self, ContainerParams, DynamicParams};
use crate::set::SegmentedSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Strategy override parsed from `FESIA_PLAN` (or set at runtime with
/// [`set_plan_mode`]). `Auto` lets the cost model decide per pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Cost-model selection per pair (the default).
    Auto,
    /// Force the plain interleaved two-phase form.
    Plain,
    /// Force the hash-probe strategy (`FESIAhash`).
    HashProbe,
}

impl PlanMode {
    /// Parse a `FESIA_PLAN` value; `None` for unrecognized strings,
    /// including the removed `pipelined`, `pruned` and `gallop` modes.
    pub fn parse(s: &str) -> Option<PlanMode> {
        Some(match s.to_ascii_lowercase().as_str() {
            "auto" => PlanMode::Auto,
            "plain" => PlanMode::Plain,
            "hash" | "hashprobe" => PlanMode::HashProbe,
            _ => return None,
        })
    }

    /// The canonical knob spelling.
    pub fn name(&self) -> &'static str {
        match self {
            PlanMode::Auto => "auto",
            PlanMode::Plain => "plain",
            PlanMode::HashProbe => "hash",
        }
    }

    /// Every forced (non-auto) mode, for equivalence sweeps.
    pub const FORCED: [PlanMode; 2] = [PlanMode::Plain, PlanMode::HashProbe];
}

/// The explicit execution shape the planner selects for one pair.
///
/// All variants compute the identical count; they differ only in how the
/// two phases are scheduled (and, for [`IntersectPlan::HashProbe`], in
/// skipping phase 1 entirely).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntersectPlan {
    /// Interleaved two-phase scan (kernel dispatched per survivor).
    Plain,
    /// Operate directly on both sides' per-range container directories
    /// ([`crate::ContainerTier`]): dense ranges run 64-bit word kernels
    /// over exact value-domain bitmaps, so — unlike every hashed-bitmap
    /// plan — this shape is sound for all four set operations without
    /// degradation. Both operands must carry a directory.
    Container,
    /// Probe the smaller set's elements against the larger set's bitmap.
    HashProbe,
}

impl IntersectPlan {
    /// Short name for logs, `fesia stats`, and reports.
    pub fn name(&self) -> &'static str {
        match self {
            IntersectPlan::Plain => "plain",
            IntersectPlan::Container => "container",
            IntersectPlan::HashProbe => "hash",
        }
    }
}

/// The planner's answer to a *threshold* query (`|A ∩ B| >= t`?):
/// either the pair resolves trivially from lengths alone, or it runs an
/// [`IntersectPlan`] through the early-exit executor
/// ([`crate::intersect_count_bounded_planned`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdPlan {
    /// `t == 0`: every pair qualifies; run an unbounded count if the
    /// caller still wants the exact cardinality.
    TrivialAccept,
    /// `t > min(|A|, |B|)`: no intersection can reach the threshold.
    TrivialReject,
    /// Run this plan with threshold-aware early exit.
    Run(IntersectPlan),
}

/// How a k-way intersection (k ≥ 3) executes; chosen by
/// [`IntersectPlanner::plan_kway`] with the pair rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KwayStrategy {
    /// Check each member of the smallest set against the others
    /// (`FESIAhash` generalized to k sets): the pair skew rule holds
    /// between the smallest and the next set.
    Probe,
    /// AND the operands' container ranges in the value domain and count
    /// the bits: every operand carries a tier and passes the pair
    /// container gate against the smallest.
    Container,
    /// The paper's §VI form: fold all k hashed bitmaps, then verify the
    /// surviving segments.
    Scan,
}

impl KwayStrategy {
    /// Short name for logs, reports, and `repro plan`.
    pub fn name(&self) -> &'static str {
        match self {
            KwayStrategy::Probe => "probe",
            KwayStrategy::Container => "container",
            KwayStrategy::Scan => "scan",
        }
    }

    /// Every strategy, for equivalence sweeps and `repro plan` races.
    pub const ALL: [KwayStrategy; 3] = [
        KwayStrategy::Probe,
        KwayStrategy::Container,
        KwayStrategy::Scan,
    ];
}

/// Multi-set plan: the evaluation order and strategy for a k-way
/// intersection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KwayPlan {
    /// Indices into the caller's set list, ascending by length — the
    /// smallest set leads the bitmap fold and anchors verification, which
    /// bounds both phases by the most selective operand.
    pub order: Vec<usize>,
    /// How the intersection runs (used for k ≥ 3; two sets take the pair
    /// planner, one set is its own answer).
    pub strategy: KwayStrategy,
}

/// The per-set features the cost model consumes — cheap to gather (all
/// cached at build time) and sufficient for every current decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetSummary {
    /// Element count.
    pub len: usize,
    /// Bitmap size in bytes.
    pub bitmap_bytes: usize,
    /// Fraction of populated summary blocks (0.0–1.0).
    pub summary_density: f64,
    /// Fraction of elements living in dense (word-bitmap or run) ranges
    /// of the container directory, when the set carries one — the
    /// container-dispatch signal (both whether the directory exists and
    /// whether word kernels would do most of the work).
    pub container_dense: Option<f64>,
}

impl SetSummary {
    /// Summarize a built set.
    pub fn of(s: &SegmentedSet) -> SetSummary {
        SetSummary {
            len: s.len(),
            bitmap_bytes: s.bitmap_bytes().len(),
            summary_density: s.summary_density(),
            container_dense: s.container_stats().map(|c| c.dense_fraction()),
        }
    }

    /// Size skew `min(n1,n2) / max(n1,n2)` against another set
    /// (1.0 when both are empty).
    pub fn skew(&self, other: &SetSummary) -> f64 {
        let (lo, hi) = if self.len <= other.len {
            (self.len, other.len)
        } else {
            (other.len, self.len)
        };
        if hi == 0 {
            1.0
        } else {
            lo as f64 / hi as f64
        }
    }
}

/// Smallest combined bitmap size (bytes of both operands) at which auto
/// mode sends a comparable, sparse pair to the hash probe: 4 MiB, past
/// L2 on every target measured, where streaming the bitmaps stalls.
const SPARSE_MIN_BITMAP_BYTES: usize = 1 << 22;

/// Highest expected share of summary blocks populated on both sides, in
/// percent (the product of the two summary densities), at which auto
/// mode still sends a large pair to the hash probe.
const SPARSE_MAX_OVERLAP_PCT: f64 = 60.0;

/// Whether the per-range container dispatch should run for a pair with
/// these summaries under `p`. Requires both sides to carry a container
/// directory (forcing cannot conjure one); beyond that, forced overrides
/// short-circuit, and auto mode asks two questions: is the pair big
/// enough that the directory walk amortizes, and does the *less* dense
/// side still keep most of its elements in word-op-friendly ranges? The
/// minimum (not the average) gates because a matched range pair runs word
/// kernels only when the sparser side's container converts cheaply.
pub fn should_container_summaries(a: &SetSummary, b: &SetSummary, p: &ContainerParams) -> bool {
    let (da, db) = match (a.container_dense, b.container_dense) {
        (Some(da), Some(db)) => (da, db),
        _ => return false,
    };
    if let Some(forced) = p.forced {
        return forced;
    }
    if a.len + b.len < p.min_elements {
        return false;
    }
    da.min(db) * 100.0 >= p.min_dense_pct as f64
}

// ---------------------------------------------------------------------------
// Machine profile (versioned)
// ---------------------------------------------------------------------------

/// Current profile file format version.
pub const PROFILE_VERSION: u32 = 1;

/// Per-machine knob overrides, read from a flat JSON object and loaded
/// into the planner at startup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProfile {
    /// File format version ([`PROFILE_VERSION`]).
    pub version: u32,
    /// Per-range container dispatch knobs.
    pub container: ContainerParams,
    /// Dynamic-set delta-folding knobs (rebuild fraction).
    pub dynamic: DynamicParams,
}

impl Default for MachineProfile {
    fn default() -> Self {
        MachineProfile {
            version: PROFILE_VERSION,
            container: ContainerParams::default(),
            dynamic: DynamicParams::default(),
        }
    }
}

impl MachineProfile {
    /// Parse a profile: one flat JSON object with scalar values.
    ///
    /// Unknown keys are ignored so newer writers stay loadable — as are
    /// the keys of removed knobs (`prefetch_distance`, `prune_*`,
    /// `pipeline_*`, `compress_*`, `gallop_max_len`), so older profiles
    /// keep loading — and a version other than [`PROFILE_VERSION`] is
    /// rejected so stale files cannot silently misconfigure the planner.
    pub fn from_json(text: &str) -> Result<MachineProfile, String> {
        let mut p = MachineProfile::default();
        let mut saw_version = false;
        for (key, value) in parse_flat_object(text)? {
            match key.as_str() {
                "version" => {
                    let v: u32 = value
                        .parse()
                        .map_err(|_| format!("bad version `{value}`"))?;
                    if v != PROFILE_VERSION {
                        return Err(format!(
                            "unsupported profile version {v} (expected {PROFILE_VERSION})"
                        ));
                    }
                    p.version = v;
                    saw_version = true;
                }
                "container_forced" => {
                    p.container.forced = match value.as_str() {
                        "auto" => None,
                        "on" => Some(true),
                        "off" => Some(false),
                        other => return Err(format!("bad container_forced `{other}`")),
                    };
                }
                "container_min_elements" => {
                    p.container.min_elements = value
                        .parse()
                        .map_err(|_| format!("bad container_min_elements `{value}`"))?;
                }
                "container_dense_pct" => {
                    let pct: u32 = value
                        .parse()
                        .map_err(|_| format!("bad container_dense_pct `{value}`"))?;
                    p.container.min_dense_pct = pct.min(100);
                }
                "rebuild_fraction" => {
                    let f: f64 = value
                        .parse()
                        .map_err(|_| format!("bad rebuild_fraction `{value}`"))?;
                    if !(f > 0.0 && f.is_finite()) {
                        return Err(format!("bad rebuild_fraction `{value}`"));
                    }
                    p.dynamic.rebuild_fraction = f;
                }
                _ => {} // forward compatibility: ignore unknown keys
            }
        }
        if !saw_version {
            return Err("profile is missing the version field".to_string());
        }
        Ok(p)
    }

    /// Load a profile from a file.
    pub fn load(path: &Path) -> Result<MachineProfile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        MachineProfile::from_json(&text)
    }
}

/// Split a flat JSON object (`{"k": v, ...}`, no nesting) into key/value
/// strings; quoted values are unquoted.
fn parse_flat_object(text: &str) -> Result<Vec<(String, String)>, String> {
    let t = text.trim();
    let inner = t
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("profile is not a JSON object")?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (k, v) = part.split_once(':').ok_or(format!("bad entry `{part}`"))?;
        let key = k.trim().trim_matches('"').to_string();
        let value = v.trim().trim_matches('"').to_string();
        out.push((key, value));
    }
    Ok(out)
}

/// The profile path the planner will load: `FESIA_PROFILE` if set,
/// otherwise `~/.fesia/profile.json` (`None` when `HOME` is unset).
pub fn default_profile_path() -> Option<PathBuf> {
    if let Some(p) = params::env::raw("FESIA_PROFILE") {
        return Some(PathBuf::from(p));
    }
    std::env::var_os("HOME").map(|h| PathBuf::from(h).join(".fesia").join("profile.json"))
}

// ---------------------------------------------------------------------------
// Process-wide planner state
// ---------------------------------------------------------------------------

static PLAN_MODE: AtomicUsize = AtomicUsize::new(0);
static INIT: OnceLock<()> = OnceLock::new();
static PROFILE_STATUS: OnceLock<String> = OnceLock::new();

fn mode_encode(m: PlanMode) -> usize {
    match m {
        PlanMode::Auto => 0,
        PlanMode::Plain => 1,
        PlanMode::HashProbe => 2,
    }
}

fn mode_decode(v: usize) -> PlanMode {
    match v {
        1 => PlanMode::Plain,
        2 => PlanMode::HashProbe,
        _ => PlanMode::Auto,
    }
}

/// One-shot planner initialization: warn about unrecognized `FESIA_*`
/// variables, fold the machine profile into the process-wide knobs, then
/// apply environment overrides on top. Idempotent and re-entrancy-safe
/// (the knob stores go through the raw setters, not the ensuring ones).
pub(crate) fn ensure_init() {
    INIT.get_or_init(|| {
        params::env::warn_unrecognized();
        let mut container = ContainerParams::default();
        let mut dynamic = DynamicParams::default();
        let status = match default_profile_path() {
            None => "none (no FESIA_PROFILE and no HOME)".to_string(),
            Some(path) if !path.exists() => format!("none ({} not found)", path.display()),
            Some(path) => match MachineProfile::load(&path) {
                Ok(profile) => {
                    container = profile.container;
                    dynamic = profile.dynamic;
                    fesia_obs::metrics().plan_profile_loads.inc();
                    format!("loaded v{} ({})", profile.version, path.display())
                }
                Err(e) => {
                    eprintln!("warning: ignoring machine profile: {e}");
                    format!("ignored ({e})")
                }
            },
        };
        let _ = PROFILE_STATUS.set(status);
        // Environment knobs override the profile field-by-field.
        crate::intersect::store_container(container.with_env_overrides());
        crate::dynamic::store_dynamic(dynamic.with_env_overrides());
        if let Some(v) = params::env::raw("FESIA_PLAN") {
            match PlanMode::parse(&v) {
                Some(m) => PLAN_MODE.store(mode_encode(m), Ordering::Relaxed),
                None => params::env::warn_malformed("FESIA_PLAN", &v, "auto|plain|hash"),
            }
        }
    });
}

/// The process-wide [`PlanMode`] (after `FESIA_PLAN` initialization).
pub fn plan_mode() -> PlanMode {
    ensure_init();
    mode_decode(PLAN_MODE.load(Ordering::Relaxed))
}

/// Replace the process-wide [`PlanMode`] at runtime (tests and the
/// equivalence sweeps use this instead of re-exec'ing with `FESIA_PLAN`).
pub fn set_plan_mode(m: PlanMode) {
    ensure_init();
    PLAN_MODE.store(mode_encode(m), Ordering::Relaxed);
}

/// Serializes tests that mutate the process-wide plan mode or knob
/// atomics against tests that assert on dispatch-form metric deltas.
#[cfg(test)]
pub(crate) fn test_knob_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Human-readable profile-load status ("loaded v1 (path)", "none (...)",
/// or "ignored (...)"), for `fesia info` and the smoke gates.
pub fn profile_status() -> String {
    ensure_init();
    PROFILE_STATUS
        .get()
        .cloned()
        .unwrap_or_else(|| "none".to_string())
}

// ---------------------------------------------------------------------------
// The planner
// ---------------------------------------------------------------------------

/// A copyable snapshot of the selection state. Batch, graph, and index
/// runs take one snapshot per run ([`IntersectPlanner::current`]) so the
/// per-pair decision is a handful of compares with no atomic loads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntersectPlanner {
    /// Forced mode, or `Auto`.
    pub mode: PlanMode,
    /// Per-range container dispatch knobs in effect.
    pub container: ContainerParams,
}

impl IntersectPlanner {
    /// Snapshot the process-wide selection state (profile + env + runtime
    /// setters, in that layering).
    pub fn current() -> IntersectPlanner {
        ensure_init();
        IntersectPlanner {
            mode: plan_mode(),
            container: crate::intersect::container_params(),
        }
    }

    /// Plan a pair restricted to the merge family (plain / container) —
    /// the contract of [`crate::intersect_count_with`], whose callers
    /// require the two-phase algorithm itself. A forced hash mode falls
    /// back to auto selection here.
    pub fn plan_merge(&self, a: &SetSummary, b: &SetSummary) -> IntersectPlan {
        if self.mode != PlanMode::Plain && should_container_summaries(a, b, &self.container) {
            // Containers outrank every hashed-bitmap shape: when most
            // elements sit in dense value-domain ranges, word kernels
            // replace both the step-1 scan and the per-segment compares,
            // and stay exact for all ops.
            IntersectPlan::Container
        } else {
            IntersectPlan::Plain
        }
    }

    /// Whether auto mode sends this pair to the hash probe: heavy skew
    /// (paper Fig. 11), or an empty side (the probe touches nothing, and
    /// riding the hash plan keeps strategy counts summing to calls).
    fn skewed(a: &SetSummary, b: &SetSummary) -> bool {
        let (small, large) = if a.len <= b.len { (a, b) } else { (b, a) };
        large.len == 0
            || (small.len as f64) < crate::intersect::SKEW_HASH_THRESHOLD * large.len as f64
    }

    /// Whether auto mode sends a comparable pair to the hash probe
    /// because its bitmaps are large and sparse: the combined bitmaps
    /// are past [`SPARSE_MIN_BITMAP_BYTES`] (streaming them misses
    /// cache), and the expected share of summary blocks populated on
    /// both sides — the product of the two summary densities — is at
    /// most [`SPARSE_MAX_OVERLAP_PCT`]. The step-1 scan would then
    /// stream mostly empty words, while the probe touches one bit per
    /// element of the smaller side.
    fn sparse(a: &SetSummary, b: &SetSummary) -> bool {
        a.bitmap_bytes + b.bitmap_bytes >= SPARSE_MIN_BITMAP_BYTES
            && a.summary_density * b.summary_density * 100.0 <= SPARSE_MAX_OVERLAP_PCT
    }

    /// Plan a pair with the full strategy family (the contract of
    /// [`crate::auto_count`] and every adaptive entry point): hash-probe
    /// under heavy skew (paper Fig. 11), otherwise the merge family —
    /// unless the merge would run the plain scan over large sparse
    /// bitmaps, which also goes to the probe.
    pub fn plan_pair(&self, a: &SetSummary, b: &SetSummary) -> IntersectPlan {
        match self.mode {
            PlanMode::HashProbe => IntersectPlan::HashProbe,
            PlanMode::Auto if Self::skewed(a, b) => IntersectPlan::HashProbe,
            PlanMode::Auto => match self.plan_merge(a, b) {
                IntersectPlan::Plain if Self::sparse(a, b) => IntersectPlan::HashProbe,
                plan => plan,
            },
            PlanMode::Plain => IntersectPlan::Plain,
        }
    }

    /// Plan a threshold query — [`IntersectPlanner::plan_pair`] with a
    /// threshold term resolved first: a zero threshold accepts every
    /// pair, and a threshold above the smaller side's length rejects
    /// without touching either set's data.
    pub fn plan_pair_threshold(
        &self,
        a: &SetSummary,
        b: &SetSummary,
        threshold: usize,
    ) -> ThresholdPlan {
        if threshold == 0 {
            return ThresholdPlan::TrivialAccept;
        }
        if threshold > a.len.min(b.len) {
            return ThresholdPlan::TrivialReject;
        }
        ThresholdPlan::Run(self.plan_pair(a, b))
    }

    /// Plan a *materializing* pair for `op` — the same strategy family as
    /// [`IntersectPlanner::plan_pair`]. The sparse-bitmap route to the
    /// probe is measured for intersection only: the Or-scan ops (union,
    /// difference, xor) keep the plain scan on that shape. Skew and a
    /// forced hash mode still probe for every op — the probe is exact for
    /// all four — and so does the container plan, whose word bitmaps are
    /// exact value-domain bitmaps rather than hashed filters.
    pub fn plan_materialize(&self, a: &SetSummary, b: &SetSummary, op: SetOp) -> IntersectPlan {
        match self.plan_pair(a, b) {
            IntersectPlan::HashProbe
                if op != SetOp::Intersect && self.mode == PlanMode::Auto && !Self::skewed(a, b) =>
            {
                IntersectPlan::Plain
            }
            plan => plan,
        }
    }

    /// Plan a k-way intersection. The order is ascending by length, so
    /// the most selective operands lead. The strategy reuses the pair
    /// rules, with no k-way knob of its own: a forced hash mode probes and
    /// the forced merge modes scan; in auto mode the pair skew rule
    /// between the smallest and the next set picks [`KwayStrategy::Probe`],
    /// else the pair container gate between the smallest and every other
    /// set picks [`KwayStrategy::Container`], else
    /// [`KwayStrategy::Scan`].
    pub fn plan_kway(&self, sets: &[SetSummary]) -> KwayPlan {
        let mut order: Vec<usize> = (0..sets.len()).collect();
        order.sort_by_key(|&i| sets[i].len);
        let strategy = match (self.mode, order.as_slice()) {
            (PlanMode::HashProbe, _) => KwayStrategy::Probe,
            (PlanMode::Plain, _) | (_, [] | [_]) => KwayStrategy::Scan,
            (PlanMode::Auto, [first, second, ..]) => {
                let lead = &sets[*first];
                if Self::skewed(lead, &sets[*second]) {
                    KwayStrategy::Probe
                } else if order[1..]
                    .iter()
                    .all(|&i| should_container_summaries(lead, &sets[i], &self.container))
                {
                    KwayStrategy::Container
                } else {
                    KwayStrategy::Scan
                }
            }
        };
        KwayPlan { order, strategy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FesiaParams;

    fn summary(len: usize, bitmap_bytes: usize, density: f64) -> SetSummary {
        SetSummary {
            len,
            bitmap_bytes,
            summary_density: density,
            container_dense: None,
        }
    }

    fn container_summary(len: usize, bitmap_bytes: usize, dense: f64) -> SetSummary {
        SetSummary {
            container_dense: Some(dense),
            ..summary(len, bitmap_bytes, 1.0)
        }
    }

    fn auto_planner() -> IntersectPlanner {
        IntersectPlanner {
            mode: PlanMode::Auto,
            container: ContainerParams::default(),
        }
    }

    #[test]
    fn plan_mode_parses_every_spelling() {
        for (s, m) in [
            ("auto", PlanMode::Auto),
            ("plain", PlanMode::Plain),
            ("hash", PlanMode::HashProbe),
            ("HashProbe", PlanMode::HashProbe),
        ] {
            assert_eq!(PlanMode::parse(s), Some(m), "{s}");
            assert_eq!(PlanMode::parse(m.name()), Some(m));
        }
        assert_eq!(PlanMode::parse("frobnicate"), None);
        // The removed modes are unrecognized: `FESIA_PLAN` warns and
        // stays on auto.
        for removed in [
            "pipelined",
            "pipeline",
            "pruned",
            "prune",
            "gallop",
            "gallopfallback",
        ] {
            assert_eq!(PlanMode::parse(removed), None, "{removed}");
        }
    }

    #[test]
    fn auto_pair_follows_skew_size_and_density() {
        let p = auto_planner();
        // Heavy skew -> hash probe.
        let tiny = summary(100, 64, 1.0);
        let big = summary(100_000, 1 << 18, 1.0);
        assert_eq!(p.plan_pair(&tiny, &big), IntersectPlan::HashProbe);
        assert_eq!(p.plan_pair(&big, &tiny), IntersectPlan::HashProbe);
        // Empty pair -> hash probe (probes zero elements).
        let empty = summary(0, 64, 0.0);
        assert_eq!(p.plan_pair(&empty, &empty), IntersectPlan::HashProbe);
        // Comparable pairs, small or large -> plain.
        let small = summary(1_000, 4096, 1.0);
        assert_eq!(p.plan_pair(&small, &small), IntersectPlan::Plain);
        let large = summary(1 << 16, 1 << 17, 1.0);
        assert_eq!(p.plan_pair(&large, &large), IntersectPlan::Plain);
    }

    /// A comparable pair whose combined bitmaps reach 4 MiB with a
    /// summary-density product of at most 60% goes to the hash probe on
    /// the full-family path; the merge-only path keeps the plain scan,
    /// and materializing plans probe for intersection only.
    #[test]
    fn large_sparse_pair_probes_and_merge_stays_plain() {
        let p = auto_planner();
        // Two 2 MiB bitmaps (4 MiB combined) at 0.3 density: 9% overlap.
        let sparse = summary(1 << 20, 1 << 21, 0.3);
        assert_eq!(p.plan_pair(&sparse, &sparse), IntersectPlan::HashProbe);
        assert_eq!(p.plan_merge(&sparse, &sparse), IntersectPlan::Plain);
        assert_eq!(
            p.plan_pair_threshold(&sparse, &sparse, 1),
            ThresholdPlan::Run(IntersectPlan::HashProbe)
        );
        for (op, want) in [
            (SetOp::Intersect, IntersectPlan::HashProbe),
            (SetOp::Union, IntersectPlan::Plain),
            (SetOp::Difference, IntersectPlan::Plain),
            (SetOp::Xor, IntersectPlan::Plain),
        ] {
            assert_eq!(p.plan_materialize(&sparse, &sparse, op), want, "{op:?}");
        }
        // Both thresholds are inclusive edges.
        let edge = summary(1 << 20, 1 << 21, 0.6);
        let full = summary(1 << 20, 1 << 21, 1.0);
        assert_eq!(p.plan_pair(&edge, &full), IntersectPlan::HashProbe);
        // One byte under the size floor, or denser than 60% -> plain.
        let short = summary(1 << 20, (1 << 21) - 1, 0.3);
        assert_eq!(p.plan_pair(&short, &sparse), IntersectPlan::Plain);
        let dense = summary(1 << 20, 1 << 21, 0.8);
        assert_eq!(p.plan_pair(&dense, &dense), IntersectPlan::Plain);
        // A forced plain mode never probes.
        let mut plain = p;
        plain.mode = PlanMode::Plain;
        assert_eq!(plain.plan_pair(&sparse, &sparse), IntersectPlan::Plain);
    }

    #[test]
    fn container_plan_follows_density_and_availability() {
        let p = auto_planner();
        // A big dense-ranged pair -> container, outranking every other
        // shape (this pair would otherwise be probed).
        let dense = container_summary(1 << 20, 1 << 22, 0.9);
        assert_eq!(p.plan_pair(&dense, &dense), IntersectPlan::Container);
        // No directory on one side -> never container.
        let raw = summary(1 << 20, 1 << 22, 0.3);
        assert_eq!(p.plan_pair(&dense, &raw), IntersectPlan::HashProbe);
        // A sparse directory (arrays everywhere) stays on the merge.
        let sparse = container_summary(1 << 20, 1 << 22, 0.1);
        assert_ne!(p.plan_pair(&sparse, &sparse), IntersectPlan::Container);
        // The *less* dense side gates: one dense side cannot carry a pair
        // whose other side is mostly arrays.
        assert_ne!(p.plan_pair(&dense, &sparse), IntersectPlan::Container);
        // Below the size floor the segmented merge wins.
        let small = container_summary(1 << 13, 1 << 14, 0.9);
        assert_ne!(p.plan_pair(&small, &small), IntersectPlan::Container);
        // Forcing overrides the model both ways — but cannot conjure a
        // missing directory.
        let mut forced_on = p;
        forced_on.container.forced = Some(true);
        assert_eq!(
            forced_on.plan_merge(&sparse, &sparse),
            IntersectPlan::Container
        );
        assert_ne!(forced_on.plan_merge(&dense, &raw), IntersectPlan::Container);
        let mut forced_off = p;
        forced_off.container.forced = Some(false);
        assert_ne!(
            forced_off.plan_pair(&dense, &dense),
            IntersectPlan::Container
        );
        // Container survives materializing plans for every op (exact
        // value-domain bitmaps, unlike the hashed step-1 shapes).
        for op in [
            SetOp::Intersect,
            SetOp::Union,
            SetOp::Difference,
            SetOp::Xor,
        ] {
            assert_eq!(
                p.plan_materialize(&dense, &dense, op),
                IntersectPlan::Container,
                "{op:?}"
            );
        }
    }

    #[test]
    fn forced_modes_override_everything() {
        let mut p = auto_planner();
        let a = summary(100, 64, 1.0);
        let b = summary(100_000, 1 << 18, 1.0);
        p.mode = PlanMode::Plain;
        assert_eq!(p.plan_pair(&a, &b), IntersectPlan::Plain);
        assert_eq!(p.plan_merge(&a, &b), IntersectPlan::Plain);
        p.mode = PlanMode::HashProbe;
        assert_eq!(p.plan_pair(&a, &b), IntersectPlan::HashProbe);
        // A merge-only caller cannot honor a pair-level force; it falls
        // back to auto selection.
        assert_eq!(p.plan_merge(&a, &a), IntersectPlan::Plain);
    }

    #[test]
    fn materializing_plans_are_sound_per_op() {
        let p = auto_planner();
        const ALL: [SetOp; 4] = [
            SetOp::Intersect,
            SetOp::Union,
            SetOp::Difference,
            SetOp::Xor,
        ];
        // Heavy skew routes every op to the probe strategy, and a forced
        // hash mode passes through for every op.
        let tiny = summary(100, 64, 1.0);
        let big = summary(100_000, 1 << 18, 1.0);
        let small = summary(1_000, 4096, 1.0);
        let mut f = p;
        f.mode = PlanMode::HashProbe;
        for op in ALL {
            assert_eq!(
                p.plan_materialize(&tiny, &big, op),
                IntersectPlan::HashProbe
            );
            assert_eq!(
                f.plan_materialize(&small, &small, op),
                IntersectPlan::HashProbe
            );
        }
    }

    #[test]
    fn kway_plan_orders_ascending_by_length() {
        let p = auto_planner();
        let sums: Vec<SetSummary> = [500, 10, 200, 10_000]
            .iter()
            .map(|&n| summary(n, 4096, 1.0))
            .collect();
        let plan = p.plan_kway(&sums);
        assert_eq!(plan.order, vec![1, 2, 0, 3]);
        assert_eq!(p.plan_kway(&[]).order, Vec::<usize>::new());
    }

    #[test]
    fn kway_strategy_follows_the_pair_rules() {
        let p = auto_planner();
        // Smallest below 1/4 of the next -> probe, tiers or not.
        let tiny = container_summary(5_000, 1 << 14, 0.9);
        let big = container_summary(1 << 20, 1 << 22, 0.9);
        assert_eq!(p.plan_kway(&[big, tiny, big]).strategy, KwayStrategy::Probe);
        // Comparable, all dense tiers past the size floor -> container.
        assert_eq!(
            p.plan_kway(&[big, big, big]).strategy,
            KwayStrategy::Container
        );
        // One operand without a tier, or a sparse one -> scan.
        let raw = summary(1 << 20, 1 << 22, 1.0);
        let sparse = container_summary(1 << 20, 1 << 22, 0.1);
        assert_eq!(p.plan_kway(&[big, raw, big]).strategy, KwayStrategy::Scan);
        assert_eq!(
            p.plan_kway(&[big, sparse, big]).strategy,
            KwayStrategy::Scan
        );
        // Forced modes: hash probes, plain scans.
        let mut f = p;
        f.mode = PlanMode::HashProbe;
        assert_eq!(f.plan_kway(&[big, big, big]).strategy, KwayStrategy::Probe);
        f.mode = PlanMode::Plain;
        assert_eq!(f.plan_kway(&[big, tiny, big]).strategy, KwayStrategy::Scan);
        // The container knob forces (or forbids) the container strategy
        // for tiered operands, exactly as for pairs.
        let mut on = p;
        on.container.forced = Some(true);
        assert_eq!(
            on.plan_kway(&[sparse, sparse, sparse]).strategy,
            KwayStrategy::Container
        );
        assert_eq!(on.plan_kway(&[big, raw, big]).strategy, KwayStrategy::Scan);
        let mut off = p;
        off.container.forced = Some(false);
        assert_eq!(off.plan_kway(&[big, big, big]).strategy, KwayStrategy::Scan);
    }

    #[test]
    fn profile_parser_rejects_garbage_and_wrong_versions() {
        assert!(MachineProfile::from_json("not json").is_err());
        assert!(MachineProfile::from_json("{}").is_err(), "missing version");
        assert!(MachineProfile::from_json("{\"version\": 999}").is_err());
        assert!(
            MachineProfile::from_json("{\"version\": 1, \"container_forced\": \"banana\"}")
                .is_err()
        );
        // The keys of removed knobs are ignored whatever their value.
        assert_eq!(
            MachineProfile::from_json("{\"version\": 1, \"prune_forced\": \"banana\"}").unwrap(),
            MachineProfile::default()
        );
        // Unknown keys are ignored (forward compatibility).
        let p = MachineProfile::from_json(
            "{\"version\": 1, \"future_knob\": 7, \"container_min_elements\": 3}",
        )
        .unwrap();
        assert_eq!(p.container.min_elements, 3);
        // A bare version is a complete profile: every knob at its default.
        assert_eq!(
            MachineProfile::from_json("{\"version\": 1}").unwrap(),
            MachineProfile::default()
        );
    }

    /// A profile written before the pipelined, compressed, gallop and
    /// pruned plans were removed still loads: the removed keys are
    /// ignored and every surviving key still applies.
    #[test]
    fn profiles_with_removed_keys_still_load() {
        let old = r#"{
  "version": 1,
  "pipeline_enabled": false,
  "prefetch_distance": 16,
  "pipeline_min_elements": 0,
  "prune_forced": "on",
  "prune_min_bitmap_bytes": 12345,
  "prune_max_survivor_pct": 42,
  "compress_forced": "on",
  "compress_min_elements": 9,
  "compress_decode_mc": 1234,
  "compress_bw_mc": 567,
  "container_forced": "off",
  "container_min_elements": 2048,
  "container_dense_pct": 55,
  "rebuild_fraction": 0.125,
  "gallop_max_len": 4000
}"#;
        let want = MachineProfile {
            version: 1,
            container: ContainerParams::default()
                .with_forced(Some(false))
                .with_min_elements(2048)
                .with_min_dense_pct(55),
            dynamic: DynamicParams::default().with_rebuild_fraction(0.125),
        };
        assert_eq!(MachineProfile::from_json(old).unwrap(), want);
    }

    #[test]
    fn profile_loads_from_a_file() {
        let dir = std::env::temp_dir().join(format!("fesia-plan-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        std::fs::write(&path, "{\"version\": 1, \"container_dense_pct\": 61}").unwrap();
        let want = MachineProfile {
            container: ContainerParams::default().with_min_dense_pct(61),
            ..MachineProfile::default()
        };
        assert_eq!(MachineProfile::load(&path).unwrap(), want);
        assert!(MachineProfile::load(&dir.join("missing.json")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summaries_match_built_sets() {
        let v: Vec<u32> = (0..1_000u32).map(|i| i * 7).collect();
        let s = SegmentedSet::build(&v, &FesiaParams::auto()).unwrap();
        let sum = SetSummary::of(&s);
        assert_eq!(sum.len, s.len());
        assert_eq!(sum.bitmap_bytes, s.bitmap_bytes().len());
        assert!((sum.summary_density - s.summary_density()).abs() < 1e-12);
        assert_eq!(
            sum.container_dense,
            s.container_stats().map(|c| c.dense_fraction())
        );
        let empty = SetSummary::of(&SegmentedSet::build(&[], &FesiaParams::auto()).unwrap());
        assert_eq!(empty.skew(&sum), 0.0 / 1.0);
        assert_eq!(empty.skew(&empty), 1.0);
    }

    #[test]
    fn runtime_mode_setter_round_trips() {
        let _guard = test_knob_lock();
        let saved = plan_mode();
        for m in PlanMode::FORCED {
            set_plan_mode(m);
            assert_eq!(plan_mode(), m);
        }
        set_plan_mode(saved);
    }
}
