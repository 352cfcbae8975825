//! Evidence for the v3 zero-copy claim: decoding a set block from a
//! mapped corpus performs **zero heap allocations** — every array of the
//! returned [`SegmentedSet`] is a view into the mapping.
//!
//! A counting global allocator (thread-local counter, so parallel test
//! threads cannot pollute each other) wraps [`std::alloc::System`]; the
//! decode under test must leave the counter untouched.

use fesia_core::{FesiaParams, MappedFile, SegmentedSet};
use fesia_datagen::{sorted_distinct, SplitMix64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter is
// thread-local and allocation-free (const-initialized `Cell`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn mapped_decode_allocates_nothing_per_set() {
    // Large enough that the builder attaches the container tier, so the
    // claim covers the container sections and their validation too.
    let mut rng = SplitMix64::new(0xA110C);
    let v = sorted_distinct(200_000, 1 << 24, &mut rng);
    let set = SegmentedSet::build(&v, &FesiaParams::auto()).unwrap();
    assert!(
        set.container().is_some(),
        "tier must be present for the claim"
    );

    let path = std::env::temp_dir().join("fesia_mapped_alloc_test.fsia");
    std::fs::write(&path, set.serialize()).unwrap();
    let file = Arc::new(MappedFile::open(&path).unwrap());
    let _ = std::fs::remove_file(&path);

    // Warm-up: first decode may lazily initialize process-wide state
    // (metrics registry, knob parsing) that is not per-set cost.
    let (warm, _) = SegmentedSet::deserialize_mapped(&file, 0).unwrap();
    assert!(warm.validate());

    let before = allocs();
    let (decoded, used) = SegmentedSet::deserialize_mapped(&file, 0).unwrap();
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "mapped v4 decode must not touch the heap"
    );
    assert_eq!(used, file.len());
    assert_eq!(decoded.len(), 200_000);
    assert!(
        decoded.container().is_some(),
        "tier must survive the mmap path"
    );

    // The decoded views really are zero-copy: they point inside the
    // mapping, not at fresh heap memory.
    let range = file.bytes().as_ptr_range();
    let elem_ptr = decoded.reordered_elements().as_ptr() as *const u8;
    assert!(range.contains(&elem_ptr), "elements must alias the mapping");
    drop(file);
    assert!(decoded.validate(), "the set's Arc keeps the mapping alive");
}
