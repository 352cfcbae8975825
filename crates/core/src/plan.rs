//! The `IntersectPlanner`: one cost model behind every intersection
//! entry point.
//!
//! FESIA's value comes from picking the right execution shape per input
//! (paper §IV–VI): the segmented-bitmap two-phase merge for comparable
//! sizes, `FESIAhash` probing for heavy skew, the summary-pruned step 1
//! for large sparse pairs, and per-range containers for dense value
//! domains. This module centralizes those choices — Roaring-style
//! dispatch by a simple size and density rule — so every caller
//! (pairwise, batch, parallel, k-way, index, graph) requests an explicit
//! [`IntersectPlan`] from the same selector, and every strategy plugs in
//! at exactly one seam.
//!
//! Selection layers, lowest priority first:
//!
//! 1. built-in defaults ([`crate::params::PruneParams`],
//!    [`crate::params::ContainerParams`], and the pruned sweep's
//!    [`crate::params::PipelineParams`] prefetch distance);
//! 2. a persisted [`MachineProfile`] (written by `fesia tune` /
//!    [`crate::tuning::calibrate`], loaded from `FESIA_PROFILE` or
//!    `~/.fesia/profile.json`);
//! 3. `FESIA_*` environment knobs, including `FESIA_PLAN` which forces
//!    one strategy outright;
//! 4. runtime setters ([`crate::set_pipeline_params`],
//!    [`crate::set_prune_params`], [`set_plan_mode`]).
//!
//! Every plan decision is recorded in the `fesia-obs` `plan_*` counters.

use crate::kernels::visit::SetOp;
use crate::params::{self, ContainerParams, DynamicParams, PipelineParams, PruneParams};
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
    /// Force the summary-pruned step-1 scan.
    Pruned,
    /// Force the hash-probe strategy (`FESIAhash`).
    HashProbe,
}

impl PlanMode {
    /// Parse a `FESIA_PLAN` value; `None` for unrecognized strings,
    /// including the removed `pipelined` and `gallop` modes.
    pub fn parse(s: &str) -> Option<PlanMode> {
        Some(match s.to_ascii_lowercase().as_str() {
            "auto" => PlanMode::Auto,
            "plain" => PlanMode::Plain,
            "pruned" | "prune" => PlanMode::Pruned,
            "hash" | "hashprobe" => PlanMode::HashProbe,
            _ => return None,
        })
    }

    /// The canonical knob spelling.
    pub fn name(&self) -> &'static str {
        match self {
            PlanMode::Auto => "auto",
            PlanMode::Plain => "plain",
            PlanMode::Pruned => "pruned",
            PlanMode::HashProbe => "hash",
        }
    }

    /// Every forced (non-auto) mode, for equivalence sweeps.
    pub const FORCED: [PlanMode; 3] = [PlanMode::Plain, PlanMode::Pruned, PlanMode::HashProbe];
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
    /// Two-phase with the summary-bitmap AND pruning step 1 and a
    /// buffered, software-prefetched survivor sweep.
    Pruned {
        /// Phase-2 lookahead in survivor entries.
        prefetch_distance: usize,
    },
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
            IntersectPlan::Pruned { .. } => "pruned",
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

/// Multi-set plan: the evaluation order for a k-way intersection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KwayPlan {
    /// Indices into the caller's set list, ascending by length — the
    /// smallest set leads the bitmap fold and anchors verification, which
    /// bounds both phases by the most selective operand.
    pub order: Vec<usize>,
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

/// Whether the summary-pruned step-1 scan should run for a pair with
/// these summaries under `p` (forced overrides short-circuit). The logic
/// behind [`crate::tuning::should_prune`]: pruning pays only when the
/// combined bitmaps exceed the cache-residency floor *and* the expected
/// survivor fraction (product of the summary densities) is low enough.
pub fn should_prune_summaries(a: &SetSummary, b: &SetSummary, p: &PruneParams) -> bool {
    if let Some(forced) = p.forced {
        return forced;
    }
    let combined_bytes = a.bitmap_bytes + b.bitmap_bytes;
    if combined_bytes < p.min_bitmap_bytes {
        return false;
    }
    let expected_survivor_pct = a.summary_density * b.summary_density * 100.0;
    expected_survivor_pct <= p.max_survivor_pct as f64
}

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
// Machine profile (versioned, persisted by `fesia tune`)
// ---------------------------------------------------------------------------

/// Current profile file format version.
pub const PROFILE_VERSION: u32 = 1;

/// Calibrated crossover thresholds for one machine, persisted as a flat
/// JSON object (see [`MachineProfile::to_json`]) and loaded into the
/// planner at startup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProfile {
    /// File format version ([`PROFILE_VERSION`]).
    pub version: u32,
    /// Calibrated phase-2 prefetch distance of the pruned sweep.
    pub pipeline: PipelineParams,
    /// Calibrated summary-pruning knobs.
    pub prune: PruneParams,
    /// Calibrated per-range container dispatch knobs.
    pub container: ContainerParams,
    /// Dynamic-set delta-folding knobs (rebuild fraction).
    pub dynamic: DynamicParams,
}

impl Default for MachineProfile {
    fn default() -> Self {
        MachineProfile {
            version: PROFILE_VERSION,
            pipeline: PipelineParams::default(),
            prune: PruneParams::default(),
            container: ContainerParams::default(),
            dynamic: DynamicParams::default(),
        }
    }
}

impl MachineProfile {
    /// Serialize as the flat JSON object the loader accepts.
    pub fn to_json(&self) -> String {
        let tri = |forced: Option<bool>| match forced {
            None => "auto",
            Some(true) => "on",
            Some(false) => "off",
        };
        format!(
            "{{\n  \"version\": {},\n  \"prefetch_distance\": {},\n  \
             \"prune_forced\": \"{}\",\n  \"prune_min_bitmap_bytes\": {},\n  \
             \"prune_max_survivor_pct\": {},\n  \"container_forced\": \"{}\",\n  \
             \"container_min_elements\": {},\n  \"container_dense_pct\": {},\n  \
             \"rebuild_fraction\": {}\n}}\n",
            self.version,
            self.pipeline.prefetch_distance,
            tri(self.prune.forced),
            self.prune.min_bitmap_bytes,
            self.prune.max_survivor_pct,
            tri(self.container.forced),
            self.container.min_elements,
            self.container.min_dense_pct,
            self.dynamic.rebuild_fraction,
        )
    }

    /// Parse a profile previously written by [`MachineProfile::to_json`].
    ///
    /// The parser accepts exactly the flat shape this crate writes (one
    /// JSON object, scalar values); unknown keys are ignored so newer
    /// writers stay loadable — as are the keys of removed knobs
    /// (`pipeline_enabled`, `pipeline_min_elements`, `compress_*`,
    /// `gallop_max_len`), so older profiles keep loading — and a version
    /// other than
    /// [`PROFILE_VERSION`] is rejected so stale files cannot silently
    /// misconfigure the planner.
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
                "prefetch_distance" => {
                    p.pipeline.prefetch_distance = value
                        .parse()
                        .map_err(|_| format!("bad prefetch_distance `{value}`"))?;
                }
                "prune_forced" => {
                    p.prune.forced = match value.as_str() {
                        "auto" => None,
                        "on" => Some(true),
                        "off" => Some(false),
                        other => return Err(format!("bad prune_forced `{other}`")),
                    };
                }
                "prune_min_bitmap_bytes" => {
                    p.prune.min_bitmap_bytes = value
                        .parse()
                        .map_err(|_| format!("bad prune_min_bitmap_bytes `{value}`"))?;
                }
                "prune_max_survivor_pct" => {
                    let pct: u32 = value
                        .parse()
                        .map_err(|_| format!("bad prune_max_survivor_pct `{value}`"))?;
                    p.prune.max_survivor_pct = pct.min(100);
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

    /// Write the profile, creating parent directories as needed.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
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
        PlanMode::Pruned => 2,
        PlanMode::HashProbe => 3,
    }
}

fn mode_decode(v: usize) -> PlanMode {
    match v {
        1 => PlanMode::Plain,
        2 => PlanMode::Pruned,
        3 => PlanMode::HashProbe,
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
        let mut pipeline = PipelineParams::default();
        let mut prune = PruneParams::default();
        let mut container = ContainerParams::default();
        let mut dynamic = DynamicParams::default();
        let status = match default_profile_path() {
            None => "none (no FESIA_PROFILE and no HOME)".to_string(),
            Some(path) if !path.exists() => format!("none ({} not found)", path.display()),
            Some(path) => match MachineProfile::load(&path) {
                Ok(profile) => {
                    pipeline = profile.pipeline;
                    prune = profile.prune;
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
        crate::intersect::store_pipeline(pipeline.with_env_overrides());
        crate::intersect::store_prune(prune.with_env_overrides());
        crate::intersect::store_container(container.with_env_overrides());
        crate::dynamic::store_dynamic(dynamic.with_env_overrides());
        if let Some(v) = params::env::raw("FESIA_PLAN") {
            match PlanMode::parse(&v) {
                Some(m) => PLAN_MODE.store(mode_encode(m), Ordering::Relaxed),
                None => params::env::warn_malformed("FESIA_PLAN", &v, "auto|plain|pruned|hash"),
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
    /// The pruned sweep's prefetch distance in effect.
    pub pipeline: PipelineParams,
    /// Summary-pruning knobs in effect.
    pub prune: PruneParams,
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
            pipeline: crate::intersect::pipeline_params(),
            prune: crate::intersect::prune_params(),
            container: crate::intersect::container_params(),
        }
    }

    /// Plan a pair restricted to the merge family (plain / pruned /
    /// container) — the contract of [`crate::intersect_count_with`],
    /// whose callers require the two-phase algorithm itself. A forced
    /// hash mode falls back to auto selection here.
    pub fn plan_merge(&self, a: &SetSummary, b: &SetSummary) -> IntersectPlan {
        let pruned = IntersectPlan::Pruned {
            prefetch_distance: self.pipeline.prefetch_distance,
        };
        match self.mode {
            PlanMode::Plain => return IntersectPlan::Plain,
            PlanMode::Pruned => return pruned,
            PlanMode::Auto | PlanMode::HashProbe => {}
        }
        if should_container_summaries(a, b, &self.container) {
            // Containers outrank every hashed-bitmap shape: when most
            // elements sit in dense value-domain ranges, word kernels
            // replace both the step-1 scan and the per-segment compares,
            // and (unlike pruning) stay exact for all ops.
            IntersectPlan::Container
        } else if should_prune_summaries(a, b, &self.prune) {
            pruned
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

    /// Plan a pair with the full strategy family (the contract of
    /// [`crate::auto_count`] and every adaptive entry point): hash-probe
    /// under heavy skew (paper Fig. 11), otherwise the merge family.
    pub fn plan_pair(&self, a: &SetSummary, b: &SetSummary) -> IntersectPlan {
        match self.mode {
            PlanMode::HashProbe => IntersectPlan::HashProbe,
            PlanMode::Auto if Self::skewed(a, b) => IntersectPlan::HashProbe,
            _ => self.plan_merge(a, b),
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
    /// [`IntersectPlanner::plan_pair`], with the AND-only step-1
    /// optimization adjusted for the op: summary pruning is sound only
    /// under the AND combiner, so the Or-scan ops (union, difference,
    /// xor), which must visit every segment that is non-empty on either
    /// side, run the plain scan instead. The container plan is exempt —
    /// its word bitmaps are exact value-domain bitmaps, not hashed
    /// filters, so it survives for every op.
    pub fn plan_materialize(&self, a: &SetSummary, b: &SetSummary, op: SetOp) -> IntersectPlan {
        match self.plan_pair(a, b) {
            IntersectPlan::Pruned { .. } if op != SetOp::Intersect => IntersectPlan::Plain,
            plan => plan,
        }
    }

    /// Order a k-way intersection: ascending by length, so the most
    /// selective operands lead the fold and anchor verification.
    pub fn plan_kway(&self, lens: &[usize]) -> KwayPlan {
        let mut order: Vec<usize> = (0..lens.len()).collect();
        order.sort_by_key(|&i| lens[i]);
        KwayPlan { order }
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
            pipeline: PipelineParams::default(),
            prune: PruneParams::default(),
            container: ContainerParams::default(),
        }
    }

    #[test]
    fn plan_mode_parses_every_spelling() {
        for (s, m) in [
            ("auto", PlanMode::Auto),
            ("plain", PlanMode::Plain),
            ("PRUNED", PlanMode::Pruned),
            ("hash", PlanMode::HashProbe),
        ] {
            assert_eq!(PlanMode::parse(s), Some(m), "{s}");
            assert_eq!(PlanMode::parse(m.name()), Some(m));
        }
        assert_eq!(PlanMode::parse("frobnicate"), None);
        // The removed modes are unrecognized: `FESIA_PLAN` warns and
        // stays on auto.
        for removed in ["pipelined", "pipeline", "gallop", "gallopfallback"] {
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
        // Huge sparse pair past the prune floor -> pruned.
        let sparse = summary(1 << 20, 1 << 22, 0.3);
        assert!(matches!(
            p.plan_pair(&sparse, &sparse),
            IntersectPlan::Pruned { .. }
        ));
    }

    #[test]
    fn container_plan_follows_density_and_availability() {
        let p = auto_planner();
        // A big dense-ranged pair -> container, outranking every other
        // shape (this pair would otherwise be pruned).
        let dense = container_summary(1 << 20, 1 << 22, 0.9);
        assert_eq!(p.plan_pair(&dense, &dense), IntersectPlan::Container);
        // No directory on one side -> never container.
        let raw = summary(1 << 20, 1 << 22, 0.3);
        assert!(matches!(
            p.plan_pair(&dense, &raw),
            IntersectPlan::Pruned { .. }
        ));
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
        p.mode = PlanMode::Pruned;
        assert!(matches!(p.plan_pair(&a, &b), IntersectPlan::Pruned { .. }));
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
        // The AND-only pruned scan survives for intersection but falls
        // back to the plain Or-scan for the other ops — auto or forced.
        let sparse = summary(1 << 20, 1 << 22, 0.3);
        let mut forced = p;
        forced.mode = PlanMode::Pruned;
        for planner in [p, forced] {
            assert!(matches!(
                planner.plan_materialize(&sparse, &sparse, SetOp::Intersect),
                IntersectPlan::Pruned { .. }
            ));
            for op in [SetOp::Union, SetOp::Difference, SetOp::Xor] {
                assert_eq!(
                    planner.plan_materialize(&sparse, &sparse, op),
                    IntersectPlan::Plain,
                    "{op:?}"
                );
            }
        }
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
        let plan = p.plan_kway(&[500, 10, 200, 10_000]);
        assert_eq!(plan.order, vec![1, 2, 0, 3]);
        assert_eq!(p.plan_kway(&[]).order, Vec::<usize>::new());
    }

    #[test]
    fn profile_round_trips_through_json() {
        let profile = MachineProfile {
            pipeline: PipelineParams::default().with_prefetch_distance(16),
            prune: PruneParams::default()
                .with_forced(Some(false))
                .with_min_bitmap_bytes(1 << 20)
                .with_max_survivor_pct(42),
            container: ContainerParams::default()
                .with_forced(Some(true))
                .with_min_elements(2048)
                .with_min_dense_pct(55),
            dynamic: DynamicParams::default().with_rebuild_fraction(0.125),
            ..MachineProfile::default()
        };
        let back = MachineProfile::from_json(&profile.to_json()).unwrap();
        assert_eq!(back, profile);
        // Defaults round-trip too (prune_forced = auto).
        let d = MachineProfile::default();
        assert_eq!(MachineProfile::from_json(&d.to_json()).unwrap(), d);
    }

    #[test]
    fn profile_parser_rejects_garbage_and_wrong_versions() {
        assert!(MachineProfile::from_json("not json").is_err());
        assert!(MachineProfile::from_json("{}").is_err(), "missing version");
        assert!(MachineProfile::from_json("{\"version\": 999}").is_err());
        assert!(
            MachineProfile::from_json("{\"version\": 1, \"prune_forced\": \"banana\"}").is_err()
        );
        // Unknown keys are ignored (forward compatibility).
        let p = MachineProfile::from_json(
            "{\"version\": 1, \"future_knob\": 7, \"prefetch_distance\": 3}",
        )
        .unwrap();
        assert_eq!(p.pipeline.prefetch_distance, 3);
    }

    /// A profile written before the pipelined, compressed and gallop plans
    /// were removed still loads: the removed keys are ignored and every
    /// surviving key still applies.
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
        let p = MachineProfile::from_json(old).unwrap();
        let want = MachineProfile {
            version: 1,
            pipeline: PipelineParams::default().with_prefetch_distance(16),
            prune: PruneParams::default()
                .with_forced(Some(true))
                .with_min_bitmap_bytes(12345)
                .with_max_survivor_pct(42),
            container: ContainerParams::default()
                .with_forced(Some(false))
                .with_min_elements(2048)
                .with_min_dense_pct(55),
            dynamic: DynamicParams::default().with_rebuild_fraction(0.125),
        };
        assert_eq!(p, want);
        // The removed keys are not written back.
        let json = p.to_json();
        for key in [
            "pipeline_enabled",
            "pipeline_min_elements",
            "compress_",
            "gallop",
        ] {
            assert!(!json.contains(key), "{key} in {json}");
        }
    }

    #[test]
    fn profile_save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("fesia-plan-test-{}", std::process::id()));
        let path = dir.join("nested").join("profile.json");
        let profile = MachineProfile {
            version: PROFILE_VERSION,
            pipeline: PipelineParams::default().with_prefetch_distance(32),
            prune: PruneParams::default().with_min_bitmap_bytes(777),
            container: ContainerParams::default().with_min_dense_pct(61),
            dynamic: DynamicParams::default().with_rebuild_fraction(0.5),
        };
        profile.save(&path).unwrap();
        assert_eq!(MachineProfile::load(&path).unwrap(), profile);
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
