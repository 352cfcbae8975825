//! Software prefetch hints, with a scalar no-op fallback.
//!
//! The grouped hash probe (fesia-core) hashes a group of probes before
//! testing any of them, and the graph workloads know the next edge's
//! sets before they need them; the gap between discovery and use is
//! exactly where a prefetch hides the dependent-load latency that
//! dominates sparse intersections (Ding & König, *Fast Set Intersection
//! in Memory*). On x86-64 these compile
//! to `prefetcht0`/`prefetcht1`; on other architectures they are no-ops
//! so callers never need to gate on the target.

/// Hint that the cache line holding `p` will be read soon (all cache
/// levels, `_MM_HINT_T0`). Safe for any address — prefetch never faults.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is architecturally a hint; it cannot fault
    // even on invalid addresses and touches no architectural state.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Like [`prefetch_read`] but targeting L2 and beyond (`_MM_HINT_T1`) —
/// for data needed after more intervening work.
#[inline(always)]
pub fn prefetch_read_l2<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: as in `prefetch_read`.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T1 }>(p as *const i8)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_harmless_on_any_address() {
        let v = [1u32, 2, 3];
        prefetch_read(v.as_ptr());
        prefetch_read_l2(v.as_ptr());
        // Past-the-end and null: still just hints.
        prefetch_read(unsafe { v.as_ptr().add(v.len()) });
        prefetch_read(std::ptr::null::<u32>());
    }
}
