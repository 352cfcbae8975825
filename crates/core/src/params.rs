//! Tuning parameters for the segmented-bitmap data structure.

use fesia_simd::mask::LaneWidth;
use fesia_simd::util::next_pow2;
use fesia_simd::SimdLevel;

/// The `FESIA_*` environment: the two deployment settings and the
/// startup scan for everything else.
///
/// The environment holds only deployment settings — the worker-pool
/// size (`FESIA_THREADS`, read by `fesia-exec` through the same
/// `fesia_obs::env` primitive this module re-exports) and the serving
/// layer's shard count (`FESIA_SERVE_SHARDS`). Missing variables are
/// silent, malformed values emit exactly one `warning:` line and fall
/// back to the default, and [`env::warn_unrecognized`] reports — once
/// per process — any `FESIA_*` variable that no component recognizes
/// (typo protection: `FESIA_THRAEDS=4` would otherwise be silently
/// ignored).
pub mod env {
    pub use fesia_obs::env::parse_usize;
    use std::sync::OnceLock;

    /// Every `FESIA_*` variable some component of this workspace reads.
    pub const KNOWN_VARS: &[&str] = &["FESIA_THREADS", "FESIA_SERVE_SHARDS"];

    /// `FESIA_*` variables present in the environment that no component
    /// reads (sorted). Exposed separately from the warning so it is
    /// testable without capturing stderr.
    pub fn unrecognized_vars() -> Vec<String> {
        let mut out: Vec<String> = std::env::vars_os()
            .filter_map(|(k, _)| k.into_string().ok())
            .filter(|k| k.starts_with("FESIA_") && !KNOWN_VARS.contains(&k.as_str()))
            .collect();
        out.sort();
        out
    }

    /// Emit one startup warning listing unrecognized `FESIA_*`
    /// variables. Idempotent: the scan runs once per process, on the
    /// first [`crate::IntersectPlanner::current`] call.
    pub fn warn_unrecognized() {
        static ONCE: OnceLock<()> = OnceLock::new();
        ONCE.get_or_init(|| {
            let unknown = unrecognized_vars();
            if !unknown.is_empty() {
                eprintln!(
                    "warning: unrecognized FESIA_* environment variable(s): {} (known: {})",
                    unknown.join(", "),
                    KNOWN_VARS.join(", ")
                );
            }
        });
    }
}

/// Minimum bitmap size in bits.
///
/// 512 bits = 64 bytes = one AVX-512 block; enforcing this floor removes
/// every tail/alignment case from the bitmap-level intersection and costs at
/// most 64 bytes per set.
pub const MIN_BITMAP_BITS: usize = 512;

/// Parameters controlling how a [`crate::SegmentedSet`] is built.
///
/// The defaults follow the paper's analysis (§III-D): the bitmap has
/// `m = n * sqrt(w)` bits (rounded up to a power of two) where `w` is the
/// SIMD width of the detected ISA, and segments are 8 bits wide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FesiaParams {
    /// Segment width `s`: 8 or 16 bits per segment.
    pub segment: LaneWidth,
    /// Bitmap bits allocated per element before power-of-two rounding
    /// (the paper's `m / n`, optimal at `sqrt(w)`).
    pub bits_per_element: f64,
}

impl FesiaParams {
    /// Paper defaults for a given SIMD level: `m = n * sqrt(w)`, `s = 8`.
    pub fn for_level(level: SimdLevel) -> Self {
        FesiaParams {
            segment: LaneWidth::U8,
            bits_per_element: (level.width_bits() as f64).sqrt(),
        }
    }

    /// Paper defaults for the widest ISA available on this CPU.
    pub fn auto() -> Self {
        Self::for_level(SimdLevel::detect())
    }

    /// Override the bitmap density (`m / n` before rounding).
    ///
    /// Fig. 14 of the paper sweeps this knob; values below 1 make the
    /// filter coarse (more false positives), values above `sqrt(w)` make
    /// step 1 dominate.
    pub fn with_bits_per_element(mut self, bits: f64) -> Self {
        assert!(bits > 0.0, "bits_per_element must be positive");
        self.bits_per_element = bits;
        self
    }

    /// Override the segment width.
    pub fn with_segment(mut self, segment: LaneWidth) -> Self {
        self.segment = segment;
        self
    }

    /// Bitmap size in bits for a set of `n` elements: a power of two of at
    /// least [`MIN_BITMAP_BITS`], so that any two bitmaps divide one
    /// another (paper §III-C) and SIMD blocks never straddle the end.
    pub fn bitmap_bits(&self, n: usize) -> usize {
        let wanted = (n as f64 * self.bits_per_element).ceil() as usize;
        next_pow2(wanted.max(MIN_BITMAP_BITS))
    }
}

impl Default for FesiaParams {
    fn default() -> Self {
        Self::auto()
    }
}

/// The similarity-join filter cascade's one switch
/// ([`crate::simjoin`]).
///
/// The cascade's length/prefix candidate generation is the baseline and
/// always runs; early exit is an explicit argument so the `repro
/// simjoin` experiment can measure the cascade against that baseline.
/// Every default entry point runs the cascade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimjoinParams {
    /// Run the cascade: the XOR bitmap filter, then the early-exit
    /// counting kernels ([`crate::intersect_count_at_least`]). Off, the
    /// join builds no filter and decides every candidate by a full
    /// unbounded count (the prefix-filter-only baseline the acceptance
    /// gate compares against).
    pub early_exit: bool,
}

impl Default for SimjoinParams {
    fn default() -> Self {
        SimjoinParams { early_exit: true }
    }
}

impl SimjoinParams {
    /// Enable or disable the early-exit kernels.
    pub fn with_early_exit(mut self, on: bool) -> Self {
        self.early_exit = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_track_simd_width() {
        let sse = FesiaParams::for_level(SimdLevel::Sse);
        let avx512 = FesiaParams::for_level(SimdLevel::Avx512);
        assert!((sse.bits_per_element - 128f64.sqrt()).abs() < 1e-9);
        assert!((avx512.bits_per_element - 512f64.sqrt()).abs() < 1e-9);
        assert_eq!(sse.segment, LaneWidth::U8);
    }

    #[test]
    fn bitmap_bits_is_pow2_with_floor() {
        let p = FesiaParams::for_level(SimdLevel::Sse);
        assert_eq!(p.bitmap_bits(0), MIN_BITMAP_BITS);
        assert_eq!(p.bitmap_bits(1), MIN_BITMAP_BITS);
        for n in [10usize, 100, 1000, 123_456] {
            let m = p.bitmap_bits(n);
            assert!(m.is_power_of_two());
            assert!(m >= MIN_BITMAP_BITS);
            assert!(m as f64 >= n as f64 * p.bits_per_element);
            // No more than 2x overshoot from rounding.
            assert!((m as f64) < 2.0 * (n as f64 * p.bits_per_element).max(MIN_BITMAP_BITS as f64));
        }
    }

    #[test]
    fn density_override_respected() {
        let p = FesiaParams::for_level(SimdLevel::Sse).with_bits_per_element(0.25);
        // 1M elements at 0.25 bits/elem => 2^18 bits.
        assert_eq!(p.bitmap_bits(1 << 20), 1 << 18);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_density_panics() {
        let _ = FesiaParams::auto().with_bits_per_element(0.0);
    }

    #[test]
    fn simjoin_params_builders() {
        let p = SimjoinParams::default();
        assert!(p.early_exit);
        assert!(!p.with_early_exit(false).early_exit);
    }
}
