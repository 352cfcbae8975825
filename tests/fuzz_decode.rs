//! Fuzz-style robustness tests for the persistence format: arbitrary
//! corruption of a serialized [`SegmentedSet`] must never panic, never
//! read out of bounds, and never produce a structurally invalid set —
//! the decoder either returns `Err` or a set that passes `validate()`.

use fesia_core::{deserialize_many, serialize_many, FesiaParams, MappedFile, SegmentedSet};
use fesia_datagen::{sorted_distinct, SplitMix64};
use std::sync::Arc;

fn sample(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let v = sorted_distinct(n, 1 << 22, &mut rng);
    SegmentedSet::build(&v, &FesiaParams::auto())
        .unwrap()
        .serialize()
}

fn sample_many(sizes: &[usize], seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let sets: Vec<SegmentedSet> = sizes
        .iter()
        .map(|&n| {
            let v = sorted_distinct(n, 1 << 22, &mut rng);
            SegmentedSet::build(&v, &FesiaParams::auto()).unwrap()
        })
        .collect();
    serialize_many(&sets)
}

#[test]
fn single_byte_flips_never_panic() {
    let bytes = sample(400, 1);
    let mut rng = SplitMix64::new(2);
    // Exhaustive over the header, sampled over the body.
    let positions: Vec<usize> = (0..64.min(bytes.len()))
        .chain((0..400).map(|_| rng.below(bytes.len() as u64) as usize))
        .collect();
    for pos in positions {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut m = bytes.clone();
            m[pos] ^= flip;
            match SegmentedSet::deserialize(&m) {
                Err(_) => {}
                Ok((set, used)) => {
                    assert!(
                        set.validate(),
                        "pos={pos} flip={flip:#x} decoded invalid set"
                    );
                    assert!(used <= m.len());
                }
            }
        }
    }
}

#[test]
fn truncations_never_panic() {
    let bytes = sample(300, 3);
    for cut in 0..bytes.len() {
        match SegmentedSet::deserialize(&bytes[..cut]) {
            Err(_) => {}
            Ok((set, _)) => assert!(set.validate(), "cut={cut}"),
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SplitMix64::new(7);
    for len in [0usize, 1, 4, 15, 16, 64, 500, 5_000] {
        for trial in 0..20 {
            let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            match SegmentedSet::deserialize(&buf) {
                Err(_) => {}
                Ok((set, _)) => assert!(set.validate(), "len={len} trial={trial}"),
            }
        }
    }
}

#[test]
fn garbage_with_valid_magic_never_panics() {
    let mut rng = SplitMix64::new(11);
    for trial in 0..200 {
        let len = 15 + rng.below(2_000) as usize;
        let mut buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        buf[0..4].copy_from_slice(b"FSIA");
        buf[4] = 1; // valid version
        match SegmentedSet::deserialize(&buf) {
            Err(_) => {}
            Ok((set, _)) => assert!(set.validate(), "trial={trial}"),
        }
    }
}

#[test]
fn length_field_attacks_are_contained() {
    // Declare absurd n / log2_m values and ensure bounds hold.
    let bytes = sample(100, 13);
    for (pos, val) in [
        (6usize, 40u8),
        (6, 0),
        (7, 0xFF),
        (14, 0xFF),
        (5, 12),
        (5, 0),
    ] {
        let mut m = bytes.clone();
        m[pos] = val;
        match SegmentedSet::deserialize(&m) {
            Err(_) => {}
            Ok((set, _)) => assert!(set.validate(), "pos={pos} val={val}"),
        }
    }
}

/// The 8-byte count field of a `serialize_many` buffer is attacker
/// controlled: any value — including ones that would ask
/// `Vec::with_capacity` for petabytes — must yield `Err` or a short,
/// valid prefix of sets, never a panic or an abort-sized allocation.
#[test]
fn many_header_count_attacks_are_contained() {
    let bytes = sample_many(&[200, 300], 19);
    let attacks: [u64; 9] = [
        0,
        1,
        2,
        3,
        1_000,
        u32::MAX as u64,
        u64::MAX / 15,
        u64::MAX / 2,
        u64::MAX,
    ];
    for count in attacks {
        let mut m = bytes.clone();
        m[..8].copy_from_slice(&count.to_le_bytes());
        match deserialize_many(&m) {
            Err(_) => {}
            Ok(sets) => {
                assert!(
                    sets.len() <= 2,
                    "count={count}: more sets than the buffer holds"
                );
                assert_eq!(sets.len() as u64, count, "count={count}");
                for s in &sets {
                    assert!(s.validate(), "count={count}");
                }
            }
        }
    }
}

#[test]
fn many_truncations_never_panic() {
    let bytes = sample_many(&[120, 80, 250], 23);
    // Every prefix, including cuts through the count field, the headers,
    // and mid-set bodies.
    for cut in 0..bytes.len() {
        match deserialize_many(&bytes[..cut]) {
            Err(_) => {}
            Ok(sets) => {
                for s in &sets {
                    assert!(s.validate(), "cut={cut}");
                }
            }
        }
    }
    // The untruncated buffer round-trips.
    assert_eq!(deserialize_many(&bytes).unwrap().len(), 3);
}

#[test]
fn many_byte_flips_never_panic() {
    let bytes = sample_many(&[150, 150], 29);
    let mut rng = SplitMix64::new(31);
    // Exhaustive over the count field and both per-set header regions'
    // first bytes, sampled over the rest of the concatenated buffer.
    let positions: Vec<usize> = (0..32.min(bytes.len()))
        .chain((0..600).map(|_| rng.below(bytes.len() as u64) as usize))
        .collect();
    for pos in positions {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut m = bytes.clone();
            m[pos] ^= flip;
            match deserialize_many(&m) {
                Err(_) => {}
                Ok(sets) => {
                    for s in &sets {
                        assert!(s.validate(), "pos={pos} flip={flip:#x}");
                    }
                }
            }
        }
    }
}

#[test]
fn many_round_trips_including_empty() {
    // Zero sets, one empty set, and a mix — all must round-trip exactly.
    assert!(deserialize_many(&serialize_many::<SegmentedSet>(&[]))
        .unwrap()
        .is_empty());
    let p = FesiaParams::auto();
    let sets = vec![
        SegmentedSet::build(&[], &p).unwrap(),
        SegmentedSet::build(&[1, 2, 3], &p).unwrap(),
    ];
    let back = deserialize_many(&serialize_many(&sets)).unwrap();
    assert_eq!(back.len(), 2);
    assert_eq!(back[0].len(), 0);
    assert_eq!(back[1].len(), 3);
    assert!(back[1].contains(2));
}

/// The zero-copy decoder trusts section *content* but must reject every
/// structurally hostile header or section table without panicking or
/// reading out of bounds. Flip every byte of the v3 fixed part (header +
/// section table fill the first 128 bytes) through both decode paths.
#[test]
fn v3_section_table_flips_never_panic() {
    let mut rng = SplitMix64::new(37);
    let v = sorted_distinct(500, 1 << 22, &mut rng);
    let bytes = SegmentedSet::build(&v, &FesiaParams::auto())
        .unwrap()
        .serialize_v3();
    assert_eq!(bytes[4], 3, "sample should serialize as v3");
    for pos in 0..128.min(bytes.len()) {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut m = bytes.clone();
            m[pos] ^= flip;
            match SegmentedSet::deserialize(&m) {
                Err(_) => {}
                Ok((set, used)) => {
                    assert!(set.validate(), "owned pos={pos} flip={flip:#x}");
                    assert!(used <= m.len());
                }
            }
            // The mapped decoder trusts section *content* (a flipped
            // offset may select different-but-in-bounds bytes), so the
            // contract here is weaker than `validate()`: decode must not
            // panic and the set must be structurally usable.
            let file = Arc::new(MappedFile::from_bytes(m));
            match SegmentedSet::deserialize_mapped(&file, 0) {
                Err(_) => {}
                Ok((set, used)) => {
                    assert!(used <= file.len(), "mapped pos={pos} flip={flip:#x}");
                    let _ = set.len();
                    let _ = fesia_core::intersect_count(&set, &set);
                }
            }
        }
    }
}

/// Section-table forgeries beyond single-byte flips: offsets/lengths that
/// overlap, point past the buffer, wrap around `usize`, or shrink the
/// elements section below what the segment metadata implies.
#[test]
fn v3_hostile_section_tables_are_rejected() {
    let bytes = sample(400, 41);
    // The table lives at bytes 32..112: five (offset u64, len u64) pairs.
    let forgeries: &[(usize, u64)] = &[
        (32, u64::MAX),               // bitmap offset wraps
        (40, u64::MAX - 7),           // bitmap length wraps
        (48, 0),                      // summary offset inside the header
        (56, 1 << 40),                // summary length absurd
        (64, bytes.len() as u64),     // seg-meta offset at EOF
        (72, 8),                      // seg-meta length mismatching n
        (80, 64),                     // elements offset overlapping summary
        (88, 4),                      // elements length below n
        (96, bytes.len() as u64 * 2), // legacy packed offset past EOF
        (104, u64::MAX / 2),          // legacy packed length wraps
    ];
    for &(pos, val) in forgeries {
        let mut m = bytes.clone();
        m[pos..pos + 8].copy_from_slice(&val.to_le_bytes());
        match SegmentedSet::deserialize(&m) {
            Err(_) => {}
            Ok((set, _)) => assert!(set.validate(), "owned pos={pos} val={val}"),
        }
        let file = Arc::new(MappedFile::from_bytes(m));
        match SegmentedSet::deserialize_mapped(&file, 0) {
            Err(_) => {}
            // Content is trusted on this path; structural use must hold.
            Ok((set, _)) => {
                let _ = fesia_core::intersect_count(&set, &set);
            }
        }
    }
}

/// Every truncation of a v3 buffer through the mapped path, plus `at`
/// offsets pointing anywhere (aligned or not, in bounds or not).
#[test]
fn mapped_truncations_and_offsets_never_panic() {
    let bytes = sample(300, 43);
    let n = bytes.len();
    for cut in 0..n {
        let file = Arc::new(MappedFile::from_bytes(bytes[..cut].to_vec()));
        match SegmentedSet::deserialize_mapped(&file, 0) {
            Err(_) => {}
            Ok((set, _)) => assert!(set.validate(), "cut={cut}"),
        }
    }
    let file = Arc::new(MappedFile::from_bytes(bytes));
    let mut rng = SplitMix64::new(47);
    let offsets: Vec<usize> = (0..64)
        .chain((0..100).map(|_| rng.below(2 * n as u64) as usize))
        .chain([n - 1, n, n + 1, usize::MAX])
        .collect();
    for at in offsets {
        match SegmentedSet::deserialize_mapped(&file, at) {
            Err(_) => {}
            Ok((set, _)) => assert!(set.validate(), "at={at}"),
        }
    }
}

/// Random garbage stamped with a valid v3 magic/version must never get
/// past the mapped decoder's structural checks with an invalid set.
#[test]
fn mapped_garbage_with_valid_magic_never_panics() {
    let mut rng = SplitMix64::new(53);
    for trial in 0..200 {
        let len = 15 + rng.below(4_000) as usize;
        let mut buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        buf[0..4].copy_from_slice(b"FSIA");
        buf[4] = 3;
        let file = Arc::new(MappedFile::from_bytes(buf));
        match SegmentedSet::deserialize_mapped(&file, 0) {
            Err(_) => {}
            Ok((set, _)) => {
                let _ = fesia_core::intersect_count(&set, &set);
                let _ = trial;
            }
        }
    }
}

/// The owned decoder copies into fresh allocations, so it must accept a
/// v3 buffer at any byte alignment (mapped views may legitimately refuse).
#[test]
fn misaligned_buffers_decode_on_the_owned_path() {
    let bytes = sample(250, 59);
    let (want, _) = SegmentedSet::deserialize(&bytes).unwrap();
    for shift in 1..8 {
        let mut shifted = vec![0u8; shift];
        shifted.extend_from_slice(&bytes);
        let (set, used) = SegmentedSet::deserialize(&shifted[shift..]).unwrap();
        assert_eq!(used, bytes.len(), "shift={shift}");
        assert_eq!(set.len(), want.len(), "shift={shift}");
        assert!(set.validate(), "shift={shift}");
    }
}

/// A v2 buffer decoded and re-serialized must produce a current-version
/// set that is indistinguishable in every intersection path — the
/// container tier the re-encode gains changes representation, never
/// answers.
#[test]
fn v2_reencode_preserves_behavior() {
    let mut rng = SplitMix64::new(61);
    let av = sorted_distinct(2_500, 1 << 20, &mut rng);
    let bv = sorted_distinct(2_500, 1 << 20, &mut rng);
    let params = FesiaParams::auto();
    let a0 = SegmentedSet::build(&av, &params).unwrap();
    let b0 = SegmentedSet::build(&bv, &params).unwrap();
    let (a2, _) = SegmentedSet::deserialize(&a0.serialize_v2()).unwrap();
    let v3 = a2.serialize();
    assert_eq!(v3[4], 4);
    let (a3, used) = SegmentedSet::deserialize(&v3).unwrap();
    assert_eq!(used, v3.len());
    // And through the zero-copy path of the same buffer.
    let file = Arc::new(MappedFile::from_bytes(v3));
    let (am, _) = SegmentedSet::deserialize_mapped(&file, 0).expect("mapped decode of re-encode");
    for x in [&a2, &a3, &am] {
        assert_eq!(
            fesia_core::intersect_count(x, &b0),
            fesia_core::intersect_count(&a0, &b0)
        );
        assert_eq!(
            fesia_core::intersect(x, &b0),
            fesia_core::intersect(&a0, &b0)
        );
    }
}

/// A set whose container directory mixes all three kinds: one maximal
/// run (range 0), one dense word bitmap (range 1), one sparse array
/// (range 2). Returns the set and its v4 serialization.
fn sample_v4_mixed(seed: u64) -> (SegmentedSet, Vec<u8>) {
    let mut rng = SplitMix64::new(seed);
    let mut v: Vec<u32> = (0..8_000).collect();
    v.extend(
        sorted_distinct(20_000, 1 << 16, &mut rng)
            .iter()
            .map(|x| (1 << 16) + x),
    );
    v.extend(
        sorted_distinct(800, 1 << 16, &mut rng)
            .iter()
            .map(|x| (2 << 16) + x),
    );
    let set = SegmentedSet::build(&v, &FesiaParams::auto()).unwrap();
    let stats = set.container_stats().expect("mixed sample builds a tier");
    assert!(
        stats.ranges_array >= 1 && stats.ranges_bitmap >= 1 && stats.ranges_run >= 1,
        "sample should exercise all three container kinds: {stats:?}"
    );
    let bytes = set.serialize();
    assert_eq!(bytes[4], 4, "container-carrying sets serialize as v4");
    assert_ne!(bytes[7] & 4, 0, "FLAG_CONTAINER must be set");
    (set, bytes)
}

/// Decode `m` through both paths and require the usual contracts: owned
/// decode yields `Err` or a `validate()`-clean set; mapped decode never
/// panics and — because the v4 container sections are fully validated —
/// any surviving set is safe to drive through an intersection.
fn both_paths_contained(m: Vec<u8>, ctx: &str) {
    match SegmentedSet::deserialize(&m) {
        Err(_) => {}
        Ok((set, used)) => {
            assert!(set.validate(), "owned {ctx}");
            assert!(used <= m.len(), "owned {ctx}");
        }
    }
    let file = Arc::new(MappedFile::from_bytes(m));
    match SegmentedSet::deserialize_mapped(&file, 0) {
        Err(_) => {}
        Ok((set, used)) => {
            assert!(used <= file.len(), "mapped {ctx}");
            let _ = fesia_core::intersect_count(&set, &set);
        }
    }
}

/// Flip every byte of the v4 fixed part (header + 9-entry section table
/// fill the first 192 bytes) and a sample of the container payload bytes,
/// through both decode paths.
#[test]
fn v4_header_and_section_flips_never_panic() {
    let (_, bytes) = sample_v4_mixed(67);
    let mut rng = SplitMix64::new(71);
    let positions: Vec<usize> = (0..192.min(bytes.len()))
        .chain((0..200).map(|_| rng.below(bytes.len() as u64) as usize))
        .collect();
    for pos in positions {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut m = bytes.clone();
            m[pos] ^= flip;
            both_paths_contained(m, &format!("pos={pos} flip={flip:#x}"));
        }
    }
}

/// Section-table forgeries specific to the four v4 container sections
/// (table entries 5–8 live at bytes 112..176): misaligned word-bitmap
/// lengths, truncated run lists, flag/section disagreements, and a
/// directory claiming more ranges than the key space holds.
#[test]
fn v4_hostile_container_tables_are_rejected() {
    let (_, bytes) = sample_v4_mixed(73);
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let forgeries: &[(usize, u64, &str)] = &[
        (120, 0, "dlen zero with FLAG_CONTAINER set"),
        (120, 8, "dlen not a whole directory entry"),
        (120, (1u64 << 16) * 16 + 16, "dlen beyond one range per key"),
        (136, u64_at(&bytes, 136) | 1, "vlen not whole u16 values"),
        (152, u64_at(&bytes, 152) - 8, "wlen not whole 8 KiB blocks"),
        (168, u64_at(&bytes, 168) - 4, "rlen truncated by one run"),
        (168, u64_at(&bytes, 168) + 2, "rlen not whole u32 runs"),
        (
            112,
            u64_at(&bytes, 112) + 64,
            "dir offset shifted into values",
        ),
    ];
    for &(pos, val, what) in forgeries {
        let mut m = bytes.clone();
        m[pos..pos + 8].copy_from_slice(&val.to_le_bytes());
        // Structural rejection is required on the mapped path: either the
        // header check or the tier validation must refuse the forgery.
        let file = Arc::new(MappedFile::from_bytes(m.clone()));
        match SegmentedSet::deserialize_mapped(&file, 0) {
            Err(_) => {}
            Ok((set, _)) => assert!(set.container().is_none(), "mapped accepted: {what}"),
        }
        both_paths_contained(m, what);
    }
    // FLAG_CONTAINER cleared while the sections stay non-empty.
    let mut m = bytes.clone();
    m[7] &= !4;
    assert!(
        SegmentedSet::deserialize(&m).is_err(),
        "flag/section disagreement"
    );
    let file = Arc::new(MappedFile::from_bytes(m));
    assert!(SegmentedSet::deserialize_mapped(&file, 0).is_err());
}

/// Hostile directory *content* (the mapped path's trust boundary):
/// unknown kind tags, reserved bits, out-of-order keys, zero and absurd
/// cardinalities, payload offsets off their prefix sums. The mapped
/// decoder must reject every one; the owned decoder ignores stored tier
/// bytes entirely (it rebuilds from elements) so it must stay clean.
#[test]
fn v4_hostile_directory_entries_are_rejected() {
    let (_, bytes) = sample_v4_mixed(79);
    let doff = u64::from_le_bytes(bytes[112..120].try_into().unwrap()) as usize;
    let dlen = u64::from_le_bytes(bytes[120..128].try_into().unwrap()) as usize;
    assert!(
        dlen >= 3 * 16,
        "sample has at least three directory entries"
    );
    let entry_w0 = |b: &[u8], i: usize| {
        u64::from_le_bytes(b[doff + 16 * i..doff + 16 * i + 8].try_into().unwrap())
    };
    let mut forgeries: Vec<(Vec<u8>, &str)> = Vec::new();
    // Unknown kind tag (3) and reserved directory bits.
    for (shift, what) in [(16u32, "unknown kind tag"), (24, "reserved bits set")] {
        let mut m = bytes.clone();
        let w0 = entry_w0(&m, 0) | 3 << shift;
        m[doff..doff + 8].copy_from_slice(&w0.to_le_bytes());
        forgeries.push((m, what));
    }
    // Swap the first two entries: keys fall out of order and the payload
    // prefix sums break.
    let mut m = bytes.clone();
    let (a, b): (Vec<u8>, Vec<u8>) = (
        m[doff..doff + 16].to_vec(),
        m[doff + 16..doff + 32].to_vec(),
    );
    m[doff..doff + 16].copy_from_slice(&b);
    m[doff + 16..doff + 32].copy_from_slice(&a);
    forgeries.push((m, "out-of-order keys"));
    // Zero and over-range cardinality on the first entry.
    for (card, what) in [
        (0u64, "zero cardinality"),
        (1 << 17, "cardinality beyond range"),
    ] {
        let mut m = bytes.clone();
        let w0 = (entry_w0(&m, 0) & 0xFFFF_FFFF) | card << 32;
        m[doff..doff + 8].copy_from_slice(&w0.to_le_bytes());
        forgeries.push((m, what));
    }
    // Payload offset bumped off its prefix sum.
    let mut m = bytes.clone();
    let w1 = u64::from_le_bytes(m[doff + 8..doff + 16].try_into().unwrap()) + 1;
    m[doff + 8..doff + 16].copy_from_slice(&w1.to_le_bytes());
    forgeries.push((m, "payload offset off prefix sum"));
    for (m, what) in forgeries {
        let file = Arc::new(MappedFile::from_bytes(m.clone()));
        assert!(
            SegmentedSet::deserialize_mapped(&file, 0).is_err(),
            "mapped accepted: {what}"
        );
        let (set, _) = SegmentedSet::deserialize(&m).expect("owned rebuilds from elements");
        assert!(set.validate(), "owned {what}");
    }
}

/// Every truncation of a v4 buffer through both paths, plus byte-flips
/// over the container payload region specifically (bitmap words with
/// wrong popcounts, unsorted array values, overlapping runs must all be
/// caught by the tier validation, not trusted).
#[test]
fn v4_truncations_and_payload_flips_never_panic() {
    let (_, bytes) = sample_v4_mixed(83);
    let mut rng = SplitMix64::new(89);
    let cuts: Vec<usize> = (0..256)
        .chain((0..120).map(|_| rng.below(bytes.len() as u64) as usize))
        .collect();
    for cut in cuts {
        both_paths_contained(
            bytes[..cut.min(bytes.len())].to_vec(),
            &format!("cut={cut}"),
        );
    }
    // The container payload spans from the directory section to EOF.
    let doff = u64::from_le_bytes(bytes[112..120].try_into().unwrap()) as usize;
    for _ in 0..200 {
        let pos = doff + rng.below((bytes.len() - doff) as u64) as usize;
        let mut m = bytes.clone();
        m[pos] ^= 1 << rng.below(8);
        both_paths_contained(m, &format!("payload pos={pos}"));
    }
}

/// A v3 buffer of a container-worthy set decoded and re-serialized must
/// come back as v4 with a rebuilt container tier, and stay
/// indistinguishable in every intersection path — on both the owned and
/// the zero-copy decoder.
#[test]
fn v3_to_v4_reencode_preserves_behavior() {
    let (a0, _) = sample_v4_mixed(97);
    let mut rng = SplitMix64::new(101);
    let bv = sorted_distinct(3_000, 3 << 16, &mut rng);
    let b0 = SegmentedSet::build(&bv, &FesiaParams::auto()).unwrap();
    let v3 = a0.serialize_v3();
    assert_eq!(v3[4], 3);
    // Owned v3 decode rebuilds the tier from elements...
    let (a3, _) = SegmentedSet::deserialize(&v3).unwrap();
    assert_eq!(a3.container_stats(), a0.container_stats());
    // ...while the mapped v3 path has no container sections to view.
    let v3file = Arc::new(MappedFile::from_bytes(v3));
    let (a3m, _) = SegmentedSet::deserialize_mapped(&v3file, 0).unwrap();
    assert!(a3m.container().is_none());
    // Re-encoding the decoded set produces v4 and round-trips the tier
    // bit for bit through the zero-copy path.
    let v4 = a3.serialize();
    assert_eq!(v4[4], 4);
    let (a4, used) = SegmentedSet::deserialize(&v4).unwrap();
    assert_eq!(used, v4.len());
    let v4file = Arc::new(MappedFile::from_bytes(v4));
    let (a4m, _) = SegmentedSet::deserialize_mapped(&v4file, 0).unwrap();
    assert_eq!(a4m.container_stats(), a0.container_stats());
    for x in [&a3, &a3m, &a4, &a4m] {
        assert_eq!(
            fesia_core::intersect_count(x, &b0),
            fesia_core::intersect_count(&a0, &b0)
        );
        assert_eq!(
            fesia_core::intersect(x, &b0),
            fesia_core::intersect(&a0, &b0)
        );
    }
}

#[test]
fn decoded_sets_behave_identically_to_originals() {
    // Round-trip then use in every algorithm — end-to-end sanity that the
    // decoder's output is a first-class set.
    let mut rng = SplitMix64::new(17);
    let av = sorted_distinct(3_000, 1 << 20, &mut rng);
    let bv = sorted_distinct(3_000, 1 << 20, &mut rng);
    let params = FesiaParams::auto();
    let a0 = SegmentedSet::build(&av, &params).unwrap();
    let b0 = SegmentedSet::build(&bv, &params).unwrap();
    let (a, _) = SegmentedSet::deserialize(&a0.serialize()).unwrap();
    let (b, _) = SegmentedSet::deserialize(&b0.serialize()).unwrap();
    assert_eq!(
        fesia_core::intersect_count(&a, &b),
        fesia_core::intersect_count(&a0, &b0)
    );
    assert_eq!(
        fesia_core::intersect(&a, &b),
        fesia_core::intersect(&a0, &b0)
    );
    assert_eq!(
        fesia_core::auto_count(&a, &b),
        fesia_core::auto_count(&a0, &b0)
    );
    assert_eq!(
        fesia_core::kway_count(&[&a, &b, &a0]),
        fesia_core::kway_count(&[&a0, &b0, &a0])
    );
}

/// A `.fsia` file written before the packed residual tier was removed:
/// its bytes, and the sorted elements it was built from. The fixtures
/// carry `FLAG_PACKED` and a non-empty packed section (v3: 300 elements,
/// v4: 500 elements, both built at 16 bits per element).
fn legacy_packed_fixture(version: u8) -> (std::path::PathBuf, Vec<u32>) {
    let (name, source): (&str, Vec<u32>) = match version {
        3 => ("packed_v3.fsia", (0..300u32).map(|i| i * 37 + 11).collect()),
        4 => ("packed_v4.fsia", (0..500u32).map(|i| i * 13 + 5).collect()),
        _ => unreachable!("fixtures exist for v3 and v4"),
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name);
    (path, source)
}

/// Byte offset of the packed section's length in the section table.
const PACKED_LEN_AT: usize = 32 + 4 * 16 + 8;

/// Old files with a packed section still load on both decode paths, to
/// sets holding exactly their source elements that count identically to
/// a fresh build; re-encoding drops the section.
#[test]
fn legacy_packed_fixtures_load_on_both_paths() {
    let mut decoded = Vec::new();
    let mut fresh = Vec::new();
    for version in [3u8, 4] {
        let (path, source) = legacy_packed_fixture(version);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[4], version);
        assert_eq!(bytes[7] & 1, 1, "fixture must carry FLAG_PACKED");
        let packed_len = u64::from_le_bytes(bytes[PACKED_LEN_AT..][..8].try_into().unwrap());
        assert!(packed_len > 0, "fixture must carry a packed section");
        let built = SegmentedSet::build(&source, &FesiaParams::auto()).unwrap();

        let (owned, used) = SegmentedSet::deserialize(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert!(owned.validate());
        let file = Arc::new(MappedFile::open(&path).unwrap());
        let (mapped, used) = SegmentedSet::deserialize_mapped(&file, 0).unwrap();
        assert_eq!(used, file.len());
        assert!(mapped.validate());
        for set in [&owned, &mapped] {
            let mut elems = set.reordered_elements().to_vec();
            elems.sort_unstable();
            assert_eq!(elems, source, "v{version}");
            assert_eq!(fesia_core::intersect_count(set, &built), source.len());
        }
        let again = owned.serialize();
        assert_eq!(again[7] & 1, 0, "writers never set FLAG_PACKED");
        assert_eq!(&again[PACKED_LEN_AT..][..8], &[0u8; 8]);
        decoded.push((owned, mapped));
        fresh.push(built);
    }
    let want = fesia_core::intersect_count(&fresh[0], &fresh[1]);
    assert_eq!(want, 14, "the fixtures' source sets share 14 elements");
    let ((a, am), (b, bm)) = (&decoded[0], &decoded[1]);
    for (x, y) in [(a, b), (am, bm), (a, bm), (am, b)] {
        assert_eq!(fesia_core::intersect_count(x, y), want);
        assert_eq!(fesia_core::auto_count(x, y), want);
    }
}

/// The packed section is ignored, but its length is outside input and
/// still checked against the header on both decode paths.
#[test]
fn legacy_packed_section_length_is_still_checked() {
    for version in [3u8, 4] {
        let (path, _) = legacy_packed_fixture(version);
        let bytes = std::fs::read(&path).unwrap();
        let len = u64::from_le_bytes(bytes[PACKED_LEN_AT..][..8].try_into().unwrap());
        let mut forgeries = Vec::new();
        for bad in [0, len - 8, len + 8, len * 2] {
            let mut m = bytes.clone();
            m[PACKED_LEN_AT..][..8].copy_from_slice(&bad.to_le_bytes());
            forgeries.push((format!("len={bad}"), m));
        }
        // A packed section without the flag is just as corrupt.
        let mut m = bytes.clone();
        m[7] &= !1;
        forgeries.push(("flag cleared".to_string(), m));
        for (what, m) in forgeries {
            assert_eq!(
                SegmentedSet::deserialize(&m).unwrap_err(),
                fesia_core::DecodeError::Corrupt,
                "owned v{version} {what}"
            );
            let file = Arc::new(MappedFile::from_bytes(m));
            if (file.bytes().as_ptr() as usize).is_multiple_of(8) {
                assert_eq!(
                    SegmentedSet::deserialize_mapped(&file, 0).unwrap_err(),
                    fesia_core::DecodeError::Corrupt,
                    "mapped v{version} {what}"
                );
            }
        }
    }
}
