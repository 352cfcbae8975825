//! SIMD support layer for the FESIA set-intersection library.
//!
//! This crate isolates everything that depends on the host CPU:
//!
//! * [`SimdLevel`] — runtime detection of the widest usable vector ISA
//!   (SSE4.2 / AVX2 / AVX-512), with a portable scalar fallback so the rest
//!   of the workspace builds and runs on any architecture.
//! * [`mask`] — the lane-mask primitives used by FESIA's bitmap-level
//!   intersection: AND two byte (or 16-bit-lane) streams and report which
//!   lanes are non-zero as a dense bitmask.
//! * [`prefetch`] — software prefetch hints (`prefetcht0`/`prefetcht1` on
//!   x86-64, no-ops elsewhere) used by the grouped hash probe and the
//!   graph workloads to overlap dependent loads.
//! * [`timer`] — cycle-accurate timing (`rdtsc` on x86-64, monotonic clock
//!   elsewhere) used by the benchmark harness to report the paper's
//!   "million cycles" figures.
//! * [`util`] — small arithmetic helpers (`next_pow2`, set-bit iteration).
//!
//! All `unsafe` in this crate is confined to `#[target_feature]` functions
//! whose callers must have verified the corresponding [`SimdLevel`]; the safe
//! wrappers in this crate perform that check.

pub mod features;
pub mod mask;
pub mod prefetch;
pub mod timer;
pub mod util;

pub use features::SimdLevel;
pub use timer::CycleTimer;
