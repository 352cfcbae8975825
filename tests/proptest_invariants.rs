//! Property-based invariants over pseudo-random inputs.
//!
//! Strategy: generate arbitrary duplicate-free sorted sets from a seeded
//! [`SplitMix64`] stream (self-contained — no external property-testing
//! dependency), and assert that every method computes exactly the
//! reference intersection, that the segmented encoding round-trips, and
//! that the algebraic identities of intersection hold. Each property runs
//! `CASES` deterministic cases; a failing case reports its seed so it can
//! be replayed directly.

use fesia_baselines::Method;
use fesia_core::{FesiaParams, KernelTable, SegmentedSet, SimdLevel};
use fesia_datagen::SplitMix64;

const DOMAIN: u32 = u32::MAX - 16;
const CASES: u64 = 64;

/// Sorted duplicate-free set with a random length in `0..max_len`.
fn sorted_set(rng: &mut SplitMix64, max_len: usize) -> Vec<u32> {
    let n = rng.below(max_len as u64) as usize;
    let mut set = std::collections::BTreeSet::new();
    while set.len() < n {
        set.insert((rng.below(DOMAIN as u64)) as u32);
    }
    set.into_iter().collect()
}

/// A pair with forced overlap: some elements of `a` are spliced into `b`.
fn overlapping_pair(rng: &mut SplitMix64) -> (Vec<u32>, Vec<u32>) {
    let a = sorted_set(rng, 300);
    let mut b = sorted_set(rng, 300);
    let sel = rng.next_u64();
    for (i, &x) in a.iter().enumerate() {
        if (sel >> (i % 64)) & 1 == 1 {
            if let Err(pos) = b.binary_search(&x) {
                b.insert(pos, x);
            }
        }
    }
    (a, b)
}

fn reference(a: &[u32], b: &[u32]) -> Vec<u32> {
    let bs: std::collections::HashSet<u32> = b.iter().copied().collect();
    a.iter().copied().filter(|x| bs.contains(x)).collect()
}

#[test]
fn every_baseline_counts_the_reference() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x1000 + seed);
        let (a, b) = overlapping_pair(&mut rng);
        let want = reference(&a, &b).len();
        for m in Method::all() {
            assert_eq!(m.count(&a, &b), want, "seed={seed} method={}", m.name());
        }
    }
}

#[test]
fn fesia_counts_the_reference() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x2000 + seed);
        let (a, b) = overlapping_pair(&mut rng);
        let want = reference(&a, &b).len();
        let params = FesiaParams::auto();
        let sa = SegmentedSet::build(&a, &params).unwrap();
        let sb = SegmentedSet::build(&b, &params).unwrap();
        assert_eq!(fesia_core::intersect_count(&sa, &sb), want, "seed={seed}");
        assert_eq!(
            fesia_core::intersect(&sa, &sb),
            reference(&a, &b),
            "seed={seed}"
        );
        assert_eq!(fesia_core::auto_count(&sa, &sb), want, "seed={seed}");
        assert_eq!(fesia_core::hash_probe_count(&a, &sb), want, "seed={seed}");
    }
}

#[test]
fn intersection_is_commutative_and_bounded() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x3000 + seed);
        let (a, b) = overlapping_pair(&mut rng);
        let params = FesiaParams::auto();
        let sa = SegmentedSet::build(&a, &params).unwrap();
        let sb = SegmentedSet::build(&b, &params).unwrap();
        let ab = fesia_core::intersect_count(&sa, &sb);
        let ba = fesia_core::intersect_count(&sb, &sa);
        assert_eq!(ab, ba, "seed={seed}");
        assert!(ab <= a.len().min(b.len()), "seed={seed}");
        // Self-intersection is identity.
        assert_eq!(
            fesia_core::intersect_count(&sa, &sa),
            a.len(),
            "seed={seed}"
        );
    }
}

#[test]
fn encoding_round_trips() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x4000 + seed);
        let a = sorted_set(&mut rng, 500);
        let params = FesiaParams::auto();
        let s = SegmentedSet::build(&a, &params).unwrap();
        assert!(s.validate(), "seed={seed}");
        assert_eq!(s.len(), a.len(), "seed={seed}");
        // The reordered array is a permutation of the input.
        let mut elems = s.reordered_elements().to_vec();
        elems.sort_unstable();
        assert_eq!(elems, a, "seed={seed}");
        // Membership is exact.
        for &x in a.iter().take(64) {
            assert!(s.contains(x), "seed={seed} x={x}");
        }
    }
}

#[test]
fn kway_equals_iterated_pairwise() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x5000 + seed);
        let a = sorted_set(&mut rng, 200);
        let b = sorted_set(&mut rng, 200);
        let c = sorted_set(&mut rng, 200);
        let ab = reference(&a, &b);
        let want = reference(&ab, &c).len();
        let params = FesiaParams::auto();
        let sa = SegmentedSet::build(&a, &params).unwrap();
        let sb = SegmentedSet::build(&b, &params).unwrap();
        let sc = SegmentedSet::build(&c, &params).unwrap();
        assert_eq!(
            fesia_core::kway_count(&[&sa, &sb, &sc]),
            want,
            "seed={seed}"
        );
        for m in Method::all() {
            assert_eq!(
                m.kway_count(&[&a, &b, &c]),
                want,
                "seed={seed} method={}",
                m.name()
            );
        }
    }
}

/// Every k-way strategy (probe, container walk, bitmap-fold scan)
/// returns the iterated-pairwise answer, materialized strictly
/// ascending, on dense domains where operands randomly straddle the
/// 4096-element tier build floor.
#[test]
fn kway_strategies_equal_iterated_pairwise() {
    let table = KernelTable::auto();
    let params = FesiaParams::auto();
    for seed in 0..CASES / 4 {
        let mut rng = SplitMix64::new(0x5A00 + seed);
        let universe = 1u64 << (15 + rng.below(4));
        let lists: Vec<Vec<u32>> = (0..3 + rng.below(2))
            .map(|_| {
                let n = rng.below(universe / 2).min(12_000) as usize;
                let mut set = std::collections::BTreeSet::new();
                while set.len() < n {
                    set.insert(rng.below(universe) as u32);
                }
                set.into_iter().collect()
            })
            .collect();
        let want = lists[1..]
            .iter()
            .fold(lists[0].clone(), |acc, l| reference(&acc, l));
        let sets: Vec<SegmentedSet> = lists
            .iter()
            .map(|l| SegmentedSet::build(l, &params).unwrap())
            .collect();
        let refs: Vec<&SegmentedSet> = sets.iter().collect();
        for strategy in fesia_core::KwayStrategy::ALL {
            assert_eq!(
                fesia_core::execute_kway_count(&refs, &table, strategy),
                want.len(),
                "seed={seed} strategy={}",
                strategy.name()
            );
            assert_eq!(
                fesia_core::execute_kway_intersect(&refs, &table, strategy),
                want,
                "seed={seed} strategy={}",
                strategy.name()
            );
        }
        assert_eq!(
            fesia_core::kway_intersect_with(&refs, &table),
            want,
            "seed={seed}"
        );
    }
}

#[test]
fn kernel_tables_agree_across_levels_on_tiny_runs() {
    use fesia_core::kernels::PaddedOperand;
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x6000 + seed);
        let n_a = rng.below(30) as usize;
        let n_b = rng.below(30) as usize;
        let mut a = std::collections::BTreeSet::new();
        while a.len() < n_a {
            a.insert(rng.below(10_000) as u32);
        }
        let mut b = std::collections::BTreeSet::new();
        while b.len() < n_b {
            b.insert(rng.below(10_000) as u32);
        }
        let av: Vec<u32> = a.into_iter().collect();
        let bv: Vec<u32> = b.into_iter().collect();
        let want = reference(&av, &bv).len() as u32;
        let pa = PaddedOperand::side_a(&av);
        let pb = PaddedOperand::side_b(&bv);
        for level in SimdLevel::available_levels() {
            for stride in [1usize, 2, 8] {
                let t = KernelTable::new(level, stride);
                assert_eq!(
                    t.count_operands(&pa, &pb),
                    want,
                    "seed={seed} level={level} stride={stride}"
                );
            }
        }
    }
}

#[test]
fn serialization_round_trips() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x7000 + seed);
        let a = sorted_set(&mut rng, 400);
        let params = FesiaParams::auto();
        let s = SegmentedSet::build(&a, &params).unwrap();
        let bytes = s.serialize();
        assert_eq!(bytes.len(), s.serialized_len(), "seed={seed}");
        let (back, used) = SegmentedSet::deserialize(&bytes).unwrap();
        assert_eq!(used, bytes.len(), "seed={seed}");
        assert!(back.validate(), "seed={seed}");
        assert_eq!(
            back.reordered_elements(),
            s.reordered_elements(),
            "seed={seed}"
        );
        assert_eq!(back.bitmap_bytes(), s.bitmap_bytes(), "seed={seed}");
    }
}

#[test]
fn u64_sets_count_the_reference() {
    use fesia_core::{intersect_count64, Fesia64Set};
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x8000 + seed);
        let shift = rng.below(33) as u32;
        let mut gen_u64 = |max_len: u64| -> Vec<u64> {
            let n = rng.below(max_len) as usize;
            let mut s = std::collections::BTreeSet::new();
            while s.len() < n {
                s.insert(rng.below(5_000_000) << shift);
            }
            s.into_iter().collect()
        };
        let av = gen_u64(200);
        let bv = gen_u64(200);
        let bs: std::collections::HashSet<u64> = bv.iter().copied().collect();
        let want = av.iter().filter(|x| bs.contains(x)).count();
        let params = FesiaParams::auto();
        let sa = Fesia64Set::build(&av, &params).unwrap();
        let sb = Fesia64Set::build(&bv, &params).unwrap();
        assert_eq!(
            intersect_count64(&sa, &sb),
            want,
            "seed={seed} shift={shift}"
        );
    }
}

#[test]
fn extraction_matches_reference_on_all_levels() {
    use fesia_core::kernels::extract::extract_into;
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x9000 + seed);
        let mut gen_small = |max_len: u64| -> Vec<u32> {
            let n = rng.below(max_len) as usize;
            let mut s = std::collections::BTreeSet::new();
            while s.len() < n {
                s.insert(rng.below(50_000) as u32);
            }
            s.into_iter().collect()
        };
        let av = gen_small(120);
        let bv = gen_small(120);
        let mut want = reference(&av, &bv);
        want.sort_unstable();
        for level in SimdLevel::available_levels() {
            let mut got = Vec::new();
            extract_into(level, &av, &bv, &mut got);
            got.sort_unstable();
            assert_eq!(got, want, "seed={seed} level={level}");
        }
    }
}

#[test]
fn breakdown_count_matches_fused() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xA000 + seed);
        let (a, b) = overlapping_pair(&mut rng);
        let params = FesiaParams::auto();
        let sa = SegmentedSet::build(&a, &params).unwrap();
        let sb = SegmentedSet::build(&b, &params).unwrap();
        let table = KernelTable::auto();
        let bd = fesia_core::intersect_count_breakdown(&sa, &sb, &table);
        assert_eq!(
            bd.count,
            fesia_core::intersect_count_with(&sa, &sb, &table),
            "seed={seed}"
        );
        // Every true match lives in a surviving segment.
        assert!(bd.count == 0 || bd.matched_segments > 0, "seed={seed}");
    }
}
