//! Compact binary persistence for [`SegmentedSet`].
//!
//! The segmented bitmap is an *offline*-built structure (the paper reports
//! 77.7 s to encode WebDocs); a database or search engine builds it once
//! and memory-maps or loads it at query time. Versions 3 and 4 are
//! designed for exactly that: every array a set needs at query time sits
//! at a 64-byte-aligned offset, so a corpus file can be `mmap`'d and
//! decoded with **zero per-set heap allocation**
//! ([`SegmentedSet::deserialize_mapped`]).
//!
//! ```text
//! v4 set block (all integers little-endian, offsets relative to set start)
//!
//!   0   magic        b"FSIA"                          4 bytes
//!   4   version      u8  (4)
//!   5   lane         u8  (8 or 16)
//!   6   log2_m       u8
//!   7   flags        u8  (bit0 = legacy packed section, bit1 = wide seg
//!                         meta, bit2 = has container tier)
//!   8   n            u64
//!  16   summary_ones u64 (legacy; written 0, ignored)
//!  24   total_len    u64 (whole block, multiple of 64)
//!  32   section table: 9 x { offset u64, len u64 }
//!         [0] BITMAP    m/8 bytes
//!         [1] SUMMARY   legacy block summary (written empty)
//!         [2] SEGMETA   packed (offset,size) entries, 4 or 8 bytes each
//!         [3] ELEMENTS  (n + PAD_LEN) x u32, sentinel tail included
//!         [4] PACKED    legacy residual stream (written empty)
//!         [5] CDIR      container directory, 2 u64 words per range
//!         [6] CVALUES   array-container payloads, sorted u16 values
//!         [7] CWORDS    bitmap-container payloads, 1024 u64 words each
//!         [8] CRUNS     run-container payloads, one u32 per run
//! 176   zero pad to 192
//! 192   sections, each 64-byte-aligned, zero padding between
//! ```
//!
//! Version 3 is the same layout with a 5-entry table (no container
//! sections) and a 128-byte header; both the owned and the mapped
//! decoder accept it. Versions 1 and 2 (the flat `header | bitmap |
//! summary | sizes | elements` layout) still decode on the owned path.
//! Only the current version is written; `tests/fixtures/v2.fsia` and
//! `v3.fsia` pin the older layouts. The container tier is rebuilt from
//! the decoded elements on every owned decode, so legacy corpora gain it
//! for free.
//!
//! Files written before the packed residual tier was removed may set
//! `FLAG_PACKED` and carry a non-empty PACKED section. Both decoders
//! still check that section's length against the header (it is outside
//! input) and then ignore it; writers always leave it empty, so the
//! format version did not change.
//!
//! The SUMMARY section followed the same path: sets no longer carry the
//! one-bit-per-512-bit-block summary, because the planner's block density
//! follows from the length and the bitmap size alone
//! ([`SegmentedSet::summary_density`]). Writers leave the section empty
//! and the header's `summary_ones` zero. Both decoders accept a SUMMARY
//! length of 0 or exactly the legacy one word per 64 blocks, skip the
//! bytes, and ignore `summary_ones`; v2 blocks skip their inline summary
//! words the same way. `tests/fixtures/v4.fsia` pins a v4 file written
//! with its summary.
//!
//! The mapped path is v3/v4- and little-endian-only: it reinterprets file
//! bytes in place and trusts section *content* (bitmap bits, element
//! values) after structural checks — the container sections
//! are the exception, fully validated by
//! [`crate::container`]'s tier check so a hostile directory can never
//! index a payload out of bounds — corruption elsewhere can only yield
//! wrong intersection counts, never out-of-bounds access.

use std::sync::Arc;

use crate::container::{self, ContainerTier};
use crate::error::BuildError;
use crate::mmap::{MappedFile, Section};
use crate::params::FesiaParams;
use crate::set::{SegMeta, SegmentedSet, PAD_LEN, PAD_SENTINEL};
use fesia_simd::mask::{summary_len, LaneWidth};
use fesia_simd::util::log2_pow2;

/// Format magic.
const MAGIC: [u8; 4] = *b"FSIA";
/// Current format version.
const VERSION: u8 = 4;
/// Previous sectioned layout (5-entry table, no container sections).
const VERSION_V3: u8 = 3;
/// Last version of the legacy flat layout.
const VERSION_V2: u8 = 2;

/// v3 fixed part: header (32) + section table (80) + pad (16); also the
/// first section's offset, so it fills exactly two cache lines.
const V3_HEADER_LEN: usize = 128;
/// v4 fixed part: header (32) + section table (144) + pad (16).
const V4_HEADER_LEN: usize = 192;
/// Prologue of a sectioned [`serialize_many`] buffer: count u64 + zero
/// pad, so the first set block starts 64-byte-aligned.
const MANY_PROLOGUE: usize = 64;

/// Legacy: the block carries a packed residual section (section 4
/// non-empty). Never written; accepted on decode and the section ignored.
const FLAG_PACKED: u8 = 1;
/// Widest residual a legacy packed section could hold; a `FLAG_PACKED`
/// header implying a wider one was never written and is corrupt.
const LEGACY_PACKED_MAX_WIDTH: u32 = 24;
/// Segment metadata entries are 8-byte (`offset << 32 | size`) rather
/// than the compact 4-byte (`offset << 8 | size`) form.
const FLAG_WIDE_META: u8 = 2;
/// Set carries a container tier (sections 5–8, v4 only).
const FLAG_CONTAINER: u8 = 4;

const SEC_BITMAP: usize = 0;
const SEC_SUMMARY: usize = 1;
const SEC_SEGMETA: usize = 2;
const SEC_ELEMENTS: usize = 3;
const SEC_PACKED: usize = 4;
/// Number of sections in a v3 table.
const SEC_COUNT_V3: usize = 5;
const SEC_CDIR: usize = 5;
const SEC_CVALUES: usize = 6;
const SEC_CWORDS: usize = 7;
const SEC_CRUNS: usize = 8;
/// Number of sections in a v4 table.
const SEC_COUNT: usize = 9;

/// Why a byte buffer could not be decoded into a [`SegmentedSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer too short for the declared layout.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Invalid header field (lane width or bitmap size).
    BadHeader,
    /// The decoded structure failed validation (corrupt or tampered data).
    Corrupt,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer too short"),
            DecodeError::BadMagic => write!(f, "not a FESIA segmented-set buffer"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::BadHeader => write!(f, "invalid header field"),
            DecodeError::Corrupt => write!(f, "structure failed validation"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn align64(x: u64) -> u64 {
    (x + 63) & !63
}

/// Byte length of each section for `set`, indexed by `SEC_*`. The
/// container lens are zero when the set carries no tier.
fn section_lens(set: &SegmentedSet) -> [u64; SEC_COUNT] {
    let (dlen, vlen, wlen, rlen) = match set.container() {
        Some(c) => {
            let (dir, values, words, runs) = c.sections();
            (
                dir.len() as u64 * 8,
                values.len() as u64 * 2,
                words.len() as u64 * 8,
                runs.len() as u64 * 4,
            )
        }
        _ => (0, 0, 0, 0),
    };
    [
        set.bitmap_bytes().len() as u64,
        0,
        match set.seg_meta() {
            SegMeta::Compact(v) => v.len() as u64 * 4,
            SegMeta::Wide(v) => v.len() as u64 * 8,
        },
        ((set.len() + PAD_LEN) * 4) as u64,
        0,
        dlen,
        vlen,
        wlen,
        rlen,
    ]
}

/// Place the sections: each 64-byte-aligned, in table order, after the
/// header. Returns the offsets and the (64-aligned) total.
fn block_layout(lens: &[u64; SEC_COUNT]) -> ([u64; SEC_COUNT], u64) {
    let mut offsets = [0u64; SEC_COUNT];
    let mut off = V4_HEADER_LEN as u64;
    for (slot, &len) in offsets.iter_mut().zip(lens) {
        *slot = off;
        off = align64(off + len);
    }
    (offsets, off)
}

impl SegmentedSet {
    /// Append the binary encoding of this set (current version) to `out`.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let lens = section_lens(self);
        let (offsets, total) = block_layout(&lens);
        out.reserve(total as usize);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.lane().bits() as u8);
        out.push(self.log2_m() as u8);
        let mut flags = 0u8;
        if matches!(self.seg_meta(), SegMeta::Wide(_)) {
            flags |= FLAG_WIDE_META;
        }
        if self.container().is_some() {
            flags |= FLAG_CONTAINER;
        }
        out.push(flags);
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // legacy summary_ones
        out.extend_from_slice(&total.to_le_bytes());
        for (off, len) in offsets.iter().zip(&lens) {
            out.extend_from_slice(&off.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.resize(start + offsets[SEC_BITMAP] as usize, 0);
        out.extend_from_slice(self.bitmap_bytes());
        out.resize(start + offsets[SEC_SEGMETA] as usize, 0);
        match self.seg_meta() {
            SegMeta::Compact(v) => {
                for &e in v.iter() {
                    out.extend_from_slice(&e.to_le_bytes());
                }
            }
            SegMeta::Wide(v) => {
                for &e in v.iter() {
                    out.extend_from_slice(&e.to_le_bytes());
                }
            }
        }
        out.resize(start + offsets[SEC_ELEMENTS] as usize, 0);
        for &x in self.reordered_elements() {
            out.extend_from_slice(&x.to_le_bytes());
        }
        for _ in 0..PAD_LEN {
            out.extend_from_slice(&PAD_SENTINEL.to_le_bytes());
        }
        if let Some(c) = self.container() {
            let (dir, values, words, runs) = c.sections();
            out.resize(start + offsets[SEC_CDIR] as usize, 0);
            for &w in dir {
                out.extend_from_slice(&w.to_le_bytes());
            }
            out.resize(start + offsets[SEC_CVALUES] as usize, 0);
            for &v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.resize(start + offsets[SEC_CWORDS] as usize, 0);
            for &w in words {
                out.extend_from_slice(&w.to_le_bytes());
            }
            out.resize(start + offsets[SEC_CRUNS] as usize, 0);
            for &r in runs {
                out.extend_from_slice(&r.to_le_bytes());
            }
        }
        out.resize(start + total as usize, 0);
    }

    /// The binary encoding as a fresh buffer.
    ///
    /// ```
    /// use fesia_core::{FesiaParams, SegmentedSet};
    /// let s = SegmentedSet::build(&[7, 11, 42], &FesiaParams::auto()).unwrap();
    /// let bytes = s.serialize();
    /// let (back, used) = SegmentedSet::deserialize(&bytes).unwrap();
    /// assert_eq!(used, bytes.len());
    /// assert!(back.contains(42));
    /// ```
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        self.serialize_into(&mut out);
        out
    }

    /// Exact length of [`SegmentedSet::serialize`]'s output (a multiple
    /// of 64).
    pub fn serialized_len(&self) -> usize {
        block_layout(&section_lens(self)).1 as usize
    }

    /// Decode a buffer produced by [`SegmentedSet::serialize`] (any
    /// supported version); returns the set and the number of bytes
    /// consumed (buffers may be concatenated).
    pub fn deserialize(bytes: &[u8]) -> Result<(SegmentedSet, usize), DecodeError> {
        if bytes.len() < 15 {
            return Err(DecodeError::Truncated);
        }
        if bytes[0..4] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        match bytes[4] {
            v @ 1..=VERSION_V2 => deserialize_legacy(bytes, v),
            VERSION_V3 | VERSION => deserialize_sectioned(bytes),
            v => Err(DecodeError::BadVersion(v)),
        }
    }

    /// Decode the v3/v4 set block at byte offset `at` of a mapped corpus,
    /// *without copying or allocating*: every array of the returned set is
    /// a [`Section`] view into the mapping, kept alive by the `Arc`.
    ///
    /// Structural metadata (header, section table, segment offsets,
    /// sentinel tail) is fully checked in
    /// `O(#segments)`; section **content** is trusted, so a corrupted
    /// bitmap or element array yields wrong intersection results but
    /// never unsafety. The v4 container sections are the exception: a
    /// hostile directory could otherwise index payloads out of bounds, so
    /// they pass the full [`crate::container`] tier validation (one
    /// allocation-free pass) before being viewed. Only version-3/4,
    /// little-endian buffers qualify — anything else must go through the
    /// owned [`SegmentedSet::deserialize`]. v3 blocks carry no container
    /// sections, so mapped v3 sets simply have no container tier.
    pub fn deserialize_mapped(
        file: &Arc<MappedFile>,
        at: usize,
    ) -> Result<(SegmentedSet, usize), DecodeError> {
        if cfg!(target_endian = "big") {
            // Mapped views reinterpret little-endian bytes in place.
            return Err(DecodeError::BadHeader);
        }
        let all = file.bytes();
        if at > all.len() {
            return Err(DecodeError::Truncated);
        }
        let bytes = &all[at..];
        if bytes.len() < 15 {
            return Err(DecodeError::Truncated);
        }
        if bytes[0..4] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        if bytes[4] != VERSION_V3 && bytes[4] != VERSION {
            return Err(DecodeError::BadVersion(bytes[4]));
        }
        let h = parse_header(bytes)?;
        // Every section offset is a multiple of 64, so one base check
        // aligns every typed view (u64 needs 8, u32 needs 4).
        if !(bytes.as_ptr() as usize).is_multiple_of(8) {
            return Err(DecodeError::Corrupt);
        }

        // Segment entries must be exact prefix sums of their sizes ending
        // at n: after this, every kernel-visible (offset, size) is in
        // bounds of the elements section.
        let wide = h.flags & FLAG_WIDE_META != 0;
        let (moff, mlen) = h.sections[SEC_SEGMETA];
        let mut acc = 0u64;
        if wide {
            // SAFETY: bounds and alignment established above.
            let entries: &[u64] = unsafe { sec_slice(bytes, moff, mlen) };
            for &e in entries {
                if e >> 32 != acc {
                    return Err(DecodeError::Corrupt);
                }
                acc += e & 0xFFFF_FFFF;
            }
        } else {
            // SAFETY: bounds and alignment established above.
            let entries: &[u32] = unsafe { sec_slice(bytes, moff, mlen) };
            for &e in entries {
                if u64::from(e >> 8) != acc {
                    return Err(DecodeError::Corrupt);
                }
                acc += u64::from(e & 0xFF);
            }
        }
        if acc != h.n as u64 {
            return Err(DecodeError::Corrupt);
        }

        // The kernels' over-read contract needs the sentinel tail intact.
        let (eoff, elen) = h.sections[SEC_ELEMENTS];
        // SAFETY: bounds and alignment established above.
        let elems: &[u32] = unsafe { sec_slice(bytes, eoff, elen) };
        if elems[h.n..].iter().any(|&x| x != PAD_SENTINEL) {
            return Err(DecodeError::Corrupt);
        }

        let base = bytes.as_ptr();
        let (boff, blen) = h.sections[SEC_BITMAP];
        // SAFETY (all views below): parse_v3_header bounds every section
        // within the mapping and the base alignment check covers every
        // element type; the Arc keeps the mapping alive.
        let bitmap = unsafe { Section::from_mapped(base.add(boff), blen, Arc::clone(file)) };
        let seg_meta = if wide {
            SegMeta::Wide(unsafe {
                Section::from_mapped(base.add(moff) as *const u64, mlen / 8, Arc::clone(file))
            })
        } else {
            SegMeta::Compact(unsafe {
                Section::from_mapped(base.add(moff) as *const u32, mlen / 4, Arc::clone(file))
            })
        };
        let reordered = unsafe {
            Section::from_mapped(base.add(eoff) as *const u32, elen / 4, Arc::clone(file))
        };
        let container = if h.flags & FLAG_CONTAINER != 0 {
            let (doff, dlen) = h.sections[SEC_CDIR];
            let (voff, vlen) = h.sections[SEC_CVALUES];
            let (woff, wlen) = h.sections[SEC_CWORDS];
            let (roff, rlen) = h.sections[SEC_CRUNS];
            // SAFETY: bounds and alignment established above.
            let dir: &[u64] = unsafe { sec_slice(bytes, doff, dlen) };
            let values: &[u16] = unsafe { sec_slice(bytes, voff, vlen) };
            let words: &[u64] = unsafe { sec_slice(bytes, woff, wlen) };
            let runs: &[u32] = unsafe { sec_slice(bytes, roff, rlen) };
            // The directory's offsets index the payload sections, so a
            // hostile one must fail here, not at query time.
            if container::validate_tier(dir, values, words, runs, h.n).is_none() {
                return Err(DecodeError::Corrupt);
            }
            // SAFETY: as for the other sections.
            Some(ContainerTier::from_parts(
                unsafe {
                    Section::from_mapped(base.add(doff) as *const u64, dlen / 8, Arc::clone(file))
                },
                unsafe {
                    Section::from_mapped(base.add(voff) as *const u16, vlen / 2, Arc::clone(file))
                },
                unsafe {
                    Section::from_mapped(base.add(woff) as *const u64, wlen / 8, Arc::clone(file))
                },
                unsafe {
                    Section::from_mapped(base.add(roff) as *const u32, rlen / 4, Arc::clone(file))
                },
            ))
        } else {
            None
        };
        let set = SegmentedSet::from_sections(
            bitmap, seg_meta, reordered, container, h.n, h.log2_m, h.lane,
        );
        Ok((set, h.total_len))
    }
}

/// Fully parsed and structurally checked v3/v4 fixed header.
struct Header {
    lane: LaneWidth,
    log2_m: u32,
    flags: u8,
    n: usize,
    total_len: usize,
    /// `(offset, len)` in bytes relative to the set start, by `SEC_*`.
    /// The container slots are `(0, 0)` for v3 blocks.
    sections: [(usize, usize); SEC_COUNT],
}

/// Parse and check the v3/v4 header and section table of the block
/// starting at `bytes[0]` (magic and version already verified by the
/// caller). Every non-container section length must equal the exact value
/// the header fields imply — the legacy SUMMARY section may instead be
/// empty, as writers now leave it; the container sections' lengths are
/// data-dependent, so they are checked for element-size multiples and
/// bounds here and for exact consumption by the tier validation. Every
/// offset must be 64-byte-aligned and fit inside `total_len` — so nothing
/// downstream needs bounds arithmetic.
fn parse_header(bytes: &[u8]) -> Result<Header, DecodeError> {
    debug_assert!(bytes[0..4] == MAGIC && (bytes[4] == VERSION_V3 || bytes[4] == VERSION));
    let v4 = bytes[4] == VERSION;
    let header_len = if v4 { V4_HEADER_LEN } else { V3_HEADER_LEN };
    if bytes.len() < header_len {
        return Err(DecodeError::Truncated);
    }
    let lane = match bytes[5] {
        8 => LaneWidth::U8,
        16 => LaneWidth::U16,
        _ => return Err(DecodeError::BadHeader),
    };
    let log2_m = bytes[6] as u32;
    if !(9..=32).contains(&log2_m) {
        // m below 512 bits or beyond the hash range is never produced.
        return Err(DecodeError::BadHeader);
    }
    let flags = bytes[7];
    let known = if v4 {
        FLAG_PACKED | FLAG_WIDE_META | FLAG_CONTAINER
    } else {
        FLAG_PACKED | FLAG_WIDE_META
    };
    if flags & !known != 0 {
        return Err(DecodeError::BadHeader);
    }
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("checked"));
    let n = usize::try_from(u64_at(8)).map_err(|_| DecodeError::Corrupt)?;
    let total_len = usize::try_from(u64_at(24)).map_err(|_| DecodeError::Corrupt)?;
    if total_len % 64 != 0 || total_len < header_len {
        return Err(DecodeError::Corrupt);
    }
    if bytes.len() < total_len {
        return Err(DecodeError::Truncated);
    }
    let m_bytes = (1usize << log2_m) / 8;
    let segs = (1usize << log2_m) / lane.bits();
    let meta_entry: u128 = if flags & FLAG_WIDE_META != 0 { 8 } else { 4 };
    let mut expected: [u128; SEC_COUNT_V3] = [
        m_bytes as u128,
        (summary_len(m_bytes) * 8) as u128,
        segs as u128 * meta_entry,
        (n as u128 + PAD_LEN as u128) * 4,
        0,
    ];
    if flags & FLAG_PACKED != 0 {
        // A legacy packed section: ignored, but its length is outside
        // input and must be exactly what the old writer produced.
        let width = 32 - log2_m + log2_pow2(lane.bits());
        if width > LEGACY_PACKED_MAX_WIDTH {
            // The old builder never packed such sets, so the flag lies.
            return Err(DecodeError::Corrupt);
        }
        // The old writer's word count (one trailing pad word), in bytes;
        // u128 because n is untrusted.
        expected[SEC_PACKED] = ((n as u128 * u128::from(width)).div_ceil(64) + 1) * 8;
    }
    let sec_count = if v4 { SEC_COUNT } else { SEC_COUNT_V3 };
    let mut sections = [(0usize, 0usize); SEC_COUNT];
    for (i, slot) in sections.iter_mut().enumerate().take(sec_count) {
        let off64 = u64_at(32 + i * 16);
        let len64 = u64_at(32 + i * 16 + 8);
        let empty_summary = i == SEC_SUMMARY && len64 == 0;
        if i < SEC_COUNT_V3 && u128::from(len64) != expected[i] && !empty_summary {
            return Err(DecodeError::Corrupt);
        }
        let off = usize::try_from(off64).map_err(|_| DecodeError::Corrupt)?;
        let len = usize::try_from(len64).map_err(|_| DecodeError::Corrupt)?;
        if off % 64 != 0 || off < header_len {
            return Err(DecodeError::Corrupt);
        }
        match off.checked_add(len) {
            Some(end) if end <= total_len => {}
            _ => return Err(DecodeError::Corrupt),
        }
        *slot = (off, len);
    }
    if v4 {
        let (dlen, vlen, wlen, rlen) = (
            sections[SEC_CDIR].1,
            sections[SEC_CVALUES].1,
            sections[SEC_CWORDS].1,
            sections[SEC_CRUNS].1,
        );
        if flags & FLAG_CONTAINER != 0 {
            // The directory has two u64 words per range, at most one range
            // per 65536-value window; payload sections must hold whole
            // elements (bitmap payloads whole 8 KiB blocks). Exact
            // consumption is the tier validation's job.
            if dlen == 0
                || !dlen.is_multiple_of(16)
                || dlen / 16 > 1 << 16
                || !vlen.is_multiple_of(2)
                || !wlen.is_multiple_of(container::WORDS_PER_RANGE * 8)
                || !rlen.is_multiple_of(4)
            {
                return Err(DecodeError::Corrupt);
            }
        } else if dlen | vlen | wlen | rlen != 0 {
            return Err(DecodeError::Corrupt);
        }
    }
    Ok(Header {
        lane,
        log2_m,
        flags,
        n,
        total_len,
        sections,
    })
}

/// View a section of `bytes` as a typed slice.
///
/// # Safety
/// `off..off + len_bytes` must be in bounds of `bytes` and the absolute
/// address of `bytes[off]` must be aligned for `T`.
unsafe fn sec_slice<T>(bytes: &[u8], off: usize, len_bytes: usize) -> &[T] {
    std::slice::from_raw_parts(
        bytes.as_ptr().add(off) as *const T,
        len_bytes / std::mem::size_of::<T>(),
    )
}

/// Owned decode of a v3/v4 block: full validation via
/// `SegmentedSet::from_decoded_parts` (which also rebuilds the container
/// tier from the decoded elements — stored tier bytes are never trusted
/// on this path).
fn deserialize_sectioned(bytes: &[u8]) -> Result<(SegmentedSet, usize), DecodeError> {
    let h = parse_header(bytes)?;
    let (boff, blen) = h.sections[SEC_BITMAP];
    let bitmap = bytes[boff..boff + blen].to_vec();
    let (moff, mlen) = h.sections[SEC_SEGMETA];
    // Only the size halves matter: offsets are re-derived (and checked)
    // as prefix sums by from_decoded_parts.
    let sizes: Vec<u32> = if h.flags & FLAG_WIDE_META != 0 {
        bytes[moff..moff + mlen]
            .chunks_exact(8)
            .map(|c| (u64::from_le_bytes(c.try_into().expect("checked")) & 0xFFFF_FFFF) as u32)
            .collect()
    } else {
        bytes[moff..moff + mlen]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("checked")) & 0xFF)
            .collect()
    };
    let (eoff, _) = h.sections[SEC_ELEMENTS];
    let reordered: Vec<u32> = bytes[eoff..eoff + h.n * 4]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("checked")))
        .collect();
    let set = SegmentedSet::from_decoded_parts(bitmap, sizes, reordered, h.log2_m, h.lane)
        .ok_or(DecodeError::Corrupt)?;
    Ok((set, h.total_len))
}

/// Owned decode of the legacy v1/v2 flat layout.
fn deserialize_legacy(bytes: &[u8], version: u8) -> Result<(SegmentedSet, usize), DecodeError> {
    let need = |n: usize, at: usize| {
        if bytes.len() < at + n {
            Err(DecodeError::Truncated)
        } else {
            Ok(())
        }
    };
    let lane = match bytes[5] {
        8 => LaneWidth::U8,
        16 => LaneWidth::U16,
        _ => return Err(DecodeError::BadHeader),
    };
    let log2_m = bytes[6] as u32;
    if !(9..=32).contains(&log2_m) {
        return Err(DecodeError::BadHeader);
    }
    let n = u64::from_le_bytes(bytes[7..15].try_into().expect("checked")) as usize;
    let m_bytes = (1usize << log2_m) / 8;
    let segs = (1usize << log2_m) / lane.bits();
    let mut at = 15;
    need(m_bytes, at)?;
    let bitmap = bytes[at..at + m_bytes].to_vec();
    at += m_bytes;
    if version >= 2 {
        // The legacy block summary: skipped, like the v3/v4 section.
        let summary_bytes = summary_len(m_bytes) * 8;
        need(summary_bytes, at)?;
        at += summary_bytes;
    }
    need(segs * 4, at)?;
    let sizes: Vec<u32> = (0..segs)
        .map(|i| {
            u32::from_le_bytes(
                bytes[at + i * 4..at + i * 4 + 4]
                    .try_into()
                    .expect("checked"),
            )
        })
        .collect();
    at += segs * 4;
    if sizes.iter().map(|&s| s as u64).sum::<u64>() != n as u64 {
        return Err(DecodeError::Corrupt);
    }
    need(n * 4, at)?;
    let reordered: Vec<u32> = (0..n)
        .map(|i| {
            u32::from_le_bytes(
                bytes[at + i * 4..at + i * 4 + 4]
                    .try_into()
                    .expect("checked"),
            )
        })
        .collect();
    at += n * 4;

    let set = SegmentedSet::from_decoded_parts(bitmap, sizes, reordered, log2_m, lane)
        .ok_or(DecodeError::Corrupt)?;
    Ok((set, at))
}

/// Convenience: serialize a whole collection (e.g. the per-term encodings
/// of an inverted index) into one buffer. The v3 framing (count word
/// padded to 64 bytes, then 64-aligned set blocks) keeps every section of
/// every set aligned, so the buffer is mmap-ready as written.
pub fn serialize_many<S: std::borrow::Borrow<SegmentedSet>>(sets: &[S]) -> Vec<u8> {
    let total: usize = sets.iter().map(|s| s.borrow().serialized_len()).sum();
    let mut out = Vec::with_capacity(total + MANY_PROLOGUE);
    out.extend_from_slice(&(sets.len() as u64).to_le_bytes());
    out.resize(MANY_PROLOGUE, 0);
    for s in sets {
        s.borrow().serialize_into(&mut out);
    }
    out
}

/// Where a many-buffer's first set block starts, by sniffing the framing:
/// legacy buffers put a v1/v2 set header right after the count.
fn many_first_set_offset(bytes: &[u8]) -> usize {
    if bytes.len() >= 13 && bytes[8..12] == MAGIC && (1..=VERSION_V2).contains(&bytes[12]) {
        8
    } else {
        MANY_PROLOGUE
    }
}

/// Decode a buffer produced by [`serialize_many`] (current or legacy
/// framing) on the owned path.
pub fn deserialize_many(bytes: &[u8]) -> Result<Vec<SegmentedSet>, DecodeError> {
    if bytes.len() < 8 {
        return Err(DecodeError::Truncated);
    }
    let count = u64::from_le_bytes(bytes[..8].try_into().expect("checked"));
    if count == 0 {
        return Ok(Vec::new());
    }
    let start = many_first_set_offset(bytes);
    if bytes.len() < start {
        return Err(DecodeError::Truncated);
    }
    // The count field is untrusted input: cap it by what the remaining
    // bytes could possibly hold (every encoded set takes at least a
    // 15-byte header) before sizing any allocation from it. A hostile
    // 8-byte count would otherwise drive `Vec::with_capacity` to abort
    // or overcommit.
    const MIN_SET_ENCODING: usize = 15;
    if count > ((bytes.len() - start) / MIN_SET_ENCODING) as u64 {
        return Err(DecodeError::Truncated);
    }
    let count = count as usize;
    let mut at = start;
    let mut sets = Vec::with_capacity(count);
    for _ in 0..count {
        let (set, used) = SegmentedSet::deserialize(&bytes[at..])?;
        at += used;
        sets.push(set);
    }
    Ok(sets)
}

/// Decode a mapped corpus produced by [`serialize_many`] with **zero
/// per-set allocation**: each returned set's arrays view the mapping
/// directly (see [`SegmentedSet::deserialize_mapped`]). Only the
/// sectioned (v3/v4) framing qualifies; legacy buffers return
/// [`DecodeError::BadVersion`] and must use the owned [`deserialize_many`].
pub fn deserialize_many_mapped(file: &Arc<MappedFile>) -> Result<Vec<SegmentedSet>, DecodeError> {
    let bytes = file.bytes();
    if bytes.len() < 8 {
        return Err(DecodeError::Truncated);
    }
    let count = u64::from_le_bytes(bytes[..8].try_into().expect("checked"));
    if count == 0 {
        return Ok(Vec::new());
    }
    if many_first_set_offset(bytes) != MANY_PROLOGUE {
        return Err(DecodeError::BadVersion(bytes[12]));
    }
    if bytes.len() < MANY_PROLOGUE {
        return Err(DecodeError::Truncated);
    }
    // Untrusted count: every sectioned set block is at least a (v3)
    // header long.
    if count > ((bytes.len() - MANY_PROLOGUE) / V3_HEADER_LEN) as u64 {
        return Err(DecodeError::Truncated);
    }
    let count = count as usize;
    let mut at = MANY_PROLOGUE;
    let mut sets = Vec::with_capacity(count);
    for _ in 0..count {
        let (set, used) = SegmentedSet::deserialize_mapped(file, at)?;
        at += used;
        sets.push(set);
    }
    Ok(sets)
}

/// Rebuild a set from an already-sorted slice with an explicit bitmap size
/// — used by tests that need a specific (m, s) combination.
pub fn build_with_bits(
    sorted: &[u32],
    bits_per_element: f64,
    lane: LaneWidth,
) -> Result<SegmentedSet, BuildError> {
    SegmentedSet::build(
        sorted,
        &FesiaParams::auto()
            .with_bits_per_element(bits_per_element)
            .with_segment(lane),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::intersect_count;

    fn sample_set(n: usize, seed: u64) -> SegmentedSet {
        let mut state = seed | 1;
        let mut vals = std::collections::BTreeSet::new();
        while vals.len() < n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            vals.insert((state % 1_000_000) as u32);
        }
        let v: Vec<u32> = vals.into_iter().collect();
        SegmentedSet::build(&v, &FesiaParams::auto()).unwrap()
    }

    /// The set blocks of a committed legacy fixture, written by the last
    /// writers that stored a block summary, each with the set built from
    /// its source elements: `v2.fsia` holds four v2 blocks behind a count
    /// word (the legacy framing), `v3.fsia` two v3 blocks and `v4.fsia`
    /// two v4 blocks, each behind a 64-byte prologue. Every set was built
    /// at 4 bits per element, except `v4.fsia`'s first, built at 256 so
    /// that its summary has empty blocks.
    fn legacy_fixture(version: u8) -> Vec<(Vec<u8>, SegmentedSet)> {
        let sparse = |n: u32, step: u32, first: u32| (0..n).map(|i| i * step + first).collect();
        // One run, one dense bitmap and one array range.
        let mut mixed: Vec<u32> = (0..2_000).collect();
        mixed.extend((0..4_500u32).map(|i| (1 << 16) + 2 * i));
        mixed.extend((0..300u32).map(|i| (2 << 16) + i * 211));
        let (name, start, sources): (&str, usize, Vec<(Vec<u32>, f64)>) = match version {
            2 => (
                "v2.fsia",
                8,
                vec![
                    (Vec::new(), 4.0),
                    (sparse(500, 1999, 7), 4.0),
                    (sparse(700, 1409, 3), 4.0),
                    (sparse(5_000, 197, 1), 4.0),
                ],
            ),
            3 => (
                "v3.fsia",
                MANY_PROLOGUE,
                vec![(sparse(500, 1999, 7), 4.0), (mixed, 4.0)],
            ),
            4 => (
                "v4.fsia",
                MANY_PROLOGUE,
                vec![(sparse(100, 39_989, 11), 256.0), (mixed, 4.0)],
            ),
            _ => unreachable!("fixtures exist for v2, v3 and v4"),
        };
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures")
            .join(name);
        let bytes = std::fs::read(path).unwrap();
        assert_eq!(
            u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            sources.len() as u64
        );
        let mut at = start;
        sources
            .iter()
            .map(|(src, bits)| {
                let (_, used) = SegmentedSet::deserialize(&bytes[at..]).unwrap();
                let block = bytes[at..at + used].to_vec();
                assert_eq!(block[4], version);
                at += used;
                let params = FesiaParams::auto().with_bits_per_element(*bits);
                (block, SegmentedSet::build(src, &params).unwrap())
            })
            .collect()
    }

    fn assert_same_set(back: &SegmentedSet, set: &SegmentedSet) {
        assert_eq!(back.len(), set.len());
        assert_eq!(back.bitmap_bytes(), set.bitmap_bytes());
        assert_eq!(back.reordered_elements(), set.reordered_elements());
        if let (Some(a), Some(b)) = (back.container(), set.container()) {
            assert_eq!(a.sections().0, b.sections().0, "container directory");
            assert_eq!(a.stats(), b.stats());
        }
        // Behavioral equality: intersects identically.
        assert_eq!(intersect_count(set, back), set.len());
    }

    #[test]
    fn round_trip_preserves_everything() {
        for n in [0usize, 1, 100, 5_000] {
            let set = sample_set(n, 42 + n as u64);
            let bytes = set.serialize();
            assert_eq!(bytes.len(), set.serialized_len());
            assert_eq!(bytes.len() % 64, 0, "v4 blocks are 64-byte multiples");
            let (back, used) = SegmentedSet::deserialize(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert!(back.validate());
            assert_same_set(&back, &set);
        }
    }

    #[test]
    fn v2_buffers_decode_and_gain_the_container_tier() {
        // A legacy buffer never stored a container tier; decoding must
        // rebuild the exact tier a fresh build carries.
        for (bytes, set) in legacy_fixture(2) {
            let (back, used) = SegmentedSet::deserialize(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert!(back.validate());
            assert_same_set(&back, &set);
        }
    }

    #[test]
    fn v3_buffers_decode_on_both_paths() {
        // The previous sectioned layout must keep decoding: owned decode
        // rebuilds the container tier, mapped decode simply carries none.
        let (v3, set) = legacy_fixture(3).swap_remove(1);
        assert!(set.container().is_some(), "sample is big enough for a tier");
        assert_eq!(v3[4], VERSION_V3);
        let (back, used) = SegmentedSet::deserialize(&v3).unwrap();
        assert_eq!(used, v3.len());
        assert!(back.validate());
        assert_same_set(&back, &set);
        assert!(back.container().is_some(), "owned decode rebuilds the tier");

        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.resize(MANY_PROLOGUE, 0);
        buf.extend_from_slice(&v3);
        let f = Arc::new(MappedFile::from_bytes(buf));
        let mapped = deserialize_many_mapped(&f).unwrap();
        assert_eq!(mapped.len(), 1);
        assert!(mapped[0].container().is_none(), "v3 blocks carry no tier");
        assert!(mapped[0].validate());
        assert_eq!(intersect_count(&mapped[0], &set), set.len());
    }

    #[test]
    fn v4_round_trip_preserves_the_container_tier() {
        let set = sample_set(20_000, 91);
        let stats = set.container().expect("tier built").stats();
        let bytes = set.serialize();
        assert_eq!(bytes[4], VERSION);
        assert_ne!(bytes[7] & FLAG_CONTAINER, 0);
        let (back, _) = SegmentedSet::deserialize(&bytes).unwrap();
        assert_eq!(back.container().unwrap().stats(), stats);

        // Mapped: the tier views the file, owning zero heap bytes.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.resize(MANY_PROLOGUE, 0);
        buf.extend_from_slice(&bytes);
        let f = Arc::new(MappedFile::from_bytes(buf));
        let mapped = deserialize_many_mapped(&f).unwrap();
        let tier = mapped[0].container().expect("mapped tier");
        assert_eq!(tier.stats(), stats);
        assert_eq!(tier.heap_bytes(), 0, "mapped tier owns no heap");
        assert!(mapped[0].validate());
    }

    #[test]
    fn mapped_decode_rejects_hostile_container_sections() {
        let set = sample_set(20_000, 93);
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.resize(MANY_PROLOGUE, 0);
        set.serialize_into(&mut buf);
        let aligned = |b: &[u8]| (b.as_ptr() as usize).is_multiple_of(8);
        let table_at = |i: usize| MANY_PROLOGUE + 32 + i * 16;

        // A corrupted directory word (kind tag set to an unknown value)
        // must fail the tier validation, not panic at query time.
        let doff = u64::from_le_bytes(
            buf[table_at(SEC_CDIR)..table_at(SEC_CDIR) + 8]
                .try_into()
                .unwrap(),
        ) as usize;
        let mut bad = buf.clone();
        bad[MANY_PROLOGUE + doff + 2] = 0x7F; // kind byte of entry 0
        let f = Arc::new(MappedFile::from_bytes(bad));
        if aligned(f.bytes()) {
            assert_eq!(
                deserialize_many_mapped(&f).unwrap_err(),
                DecodeError::Corrupt
            );
        }

        // A directory length that is not a whole number of entries.
        let mut bad = buf.clone();
        bad[table_at(SEC_CDIR) + 8] ^= 0x08;
        let f = Arc::new(MappedFile::from_bytes(bad));
        if aligned(f.bytes()) {
            assert_eq!(
                deserialize_many_mapped(&f).unwrap_err(),
                DecodeError::Corrupt
            );
        }

        // Container sections present without the flag.
        let mut bad = buf.clone();
        bad[MANY_PROLOGUE + 7] &= !FLAG_CONTAINER;
        let f = Arc::new(MappedFile::from_bytes(bad));
        if aligned(f.bytes()) {
            assert_eq!(
                deserialize_many_mapped(&f).unwrap_err(),
                DecodeError::Corrupt
            );
        }
    }

    #[test]
    fn concatenated_buffers_decode_in_sequence() {
        let a = sample_set(200, 1);
        let b = sample_set(300, 2);
        let many = serialize_many(&[a.clone(), b.clone()]);
        let back = deserialize_many(&many).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].reordered_elements(), a.reordered_elements());
        assert_eq!(back[1].reordered_elements(), b.reordered_elements());
        assert!(deserialize_many(&serialize_many::<SegmentedSet>(&[]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn legacy_many_framing_still_decodes() {
        let mut fixture = legacy_fixture(2);
        let (b_bytes, b) = fixture.swap_remove(2);
        let (a_bytes, a) = fixture.swap_remove(1);
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&2u64.to_le_bytes());
        legacy.extend_from_slice(&a_bytes);
        legacy.extend_from_slice(&b_bytes);
        let back = deserialize_many(&legacy).unwrap();
        assert_eq!(back.len(), 2);
        assert_same_set(&back[0], &a);
        assert_same_set(&back[1], &b);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            SegmentedSet::deserialize(b"FSIA").unwrap_err(),
            DecodeError::Truncated
        );
        assert_eq!(
            SegmentedSet::deserialize(&[0u8; 64]).unwrap_err(),
            DecodeError::BadMagic
        );
        let mut bytes = sample_set(100, 3).serialize();
        bytes[4] = 99;
        assert_eq!(
            SegmentedSet::deserialize(&bytes).unwrap_err(),
            DecodeError::BadVersion(99)
        );
    }

    #[test]
    fn rejects_tampered_payload() {
        let set = sample_set(500, 7);
        // v4: the bitmap section starts right after the fixed header.
        let mut bytes = set.serialize();
        bytes[V4_HEADER_LEN + 3] ^= 0xFF;
        assert_eq!(
            SegmentedSet::deserialize(&bytes).unwrap_err(),
            DecodeError::Corrupt
        );
        // v2: same flip at the legacy bitmap offset.
        let mut bytes = legacy_fixture(2).swap_remove(1).0;
        bytes[15 + 3] ^= 0xFF;
        assert_eq!(
            SegmentedSet::deserialize(&bytes).unwrap_err(),
            DecodeError::Corrupt
        );
    }

    #[test]
    fn version_1_buffers_still_decode() {
        // Down-convert a v2 buffer by hand: drop the summary words and
        // rewrite the version byte.
        let (v2, set) = legacy_fixture(2).swap_remove(2);
        let m_bytes = set.bitmap_bytes().len();
        let summary_bytes = summary_len(m_bytes) * 8;
        let mut v1 = Vec::with_capacity(v2.len() - summary_bytes);
        v1.extend_from_slice(&v2[..15 + m_bytes]);
        v1.extend_from_slice(&v2[15 + m_bytes + summary_bytes..]);
        v1[4] = 1;
        let (back, used) = SegmentedSet::deserialize(&v1).unwrap();
        assert_eq!(used, v1.len());
        assert!(back.validate());
        assert_same_set(&back, &set);
    }

    /// Byte offset of field `field` (0 = offset, 8 = len) of section
    /// `sec` in a v3/v4 section table.
    fn table_at(sec: usize, field: usize) -> usize {
        32 + sec * 16 + field
    }

    fn u64_at(bytes: &[u8], at: usize) -> usize {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
    }

    /// A v4 file written while sets still carried a block summary
    /// decodes on both paths to the sets built from its elements, and
    /// re-encoding writes the summary section empty.
    #[test]
    fn v4_fixture_with_a_summary_decodes_on_both_paths() {
        let fixture = legacy_fixture(4);
        let (first, sparse) = &fixture[0];
        let m_bytes = sparse.bitmap_bytes().len();
        assert_eq!(
            u64_at(first, table_at(SEC_SUMMARY, 8)),
            summary_len(m_bytes) * 8
        );
        let ones = u64_at(first, 16);
        assert!(
            ones > 0 && ones < m_bytes / 64,
            "the fixture's summary has both populated and empty blocks"
        );
        assert!(fixture[1].1.container().is_some());

        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/v4.fsia");
        let bytes = std::fs::read(&path).unwrap();
        let owned = deserialize_many(&bytes).unwrap();
        let file = Arc::new(MappedFile::open(&path).unwrap());
        let mapped = deserialize_many_mapped(&file).unwrap();
        assert_eq!(owned.len(), 2);
        assert_eq!(mapped.len(), 2);
        for ((back, mapped), (block, set)) in owned.iter().zip(&mapped).zip(&fixture) {
            assert!(back.validate() && mapped.validate());
            assert_same_set(back, set);
            assert_same_set(mapped, set);
            assert_eq!(back.memory_bytes(), set.memory_bytes());
            let again = back.serialize();
            assert_eq!(u64_at(&again, table_at(SEC_SUMMARY, 8)), 0);
            assert_eq!(u64_at(&again, 16), 0, "summary_ones is written 0");
            assert!(again.len() <= block.len());
            assert_eq!(again, set.serialize());
        }
    }

    /// Legacy summary bytes, and the header's `summary_ones`, are skipped
    /// unread: tampering with them changes nothing on either path.
    #[test]
    fn tampered_legacy_summary_is_ignored() {
        let (mut bytes, set) = legacy_fixture(4).swap_remove(0);
        let soff = u64_at(&bytes, table_at(SEC_SUMMARY, 0));
        let slen = u64_at(&bytes, table_at(SEC_SUMMARY, 8));
        for b in &mut bytes[soff..soff + slen] {
            *b ^= 0xA5;
        }
        bytes[16] ^= 0xFF;
        let (back, used) = SegmentedSet::deserialize(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert!(back.validate());
        assert_same_set(&back, &set);
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.resize(MANY_PROLOGUE, 0);
        buf.extend_from_slice(&bytes);
        let f = Arc::new(MappedFile::from_bytes(buf));
        if (f.bytes().as_ptr() as usize).is_multiple_of(8) {
            let mapped = deserialize_many_mapped(&f).unwrap();
            assert!(mapped[0].validate());
            assert_same_set(&mapped[0], &set);
        }
        // v2: the inline summary words are skipped the same way.
        let (mut bytes, set) = legacy_fixture(2).swap_remove(1);
        let summary_start = 15 + set.bitmap_bytes().len();
        bytes[summary_start] ^= 0xFF;
        let (back, _) = SegmentedSet::deserialize(&bytes).unwrap();
        assert_same_set(&back, &set);
    }

    #[test]
    fn rejects_truncated_payload() {
        let set = sample_set(500, 9);
        let bytes = set.serialize();
        for cut in [10usize, 20, 64, bytes.len() - 1] {
            assert_eq!(
                SegmentedSet::deserialize(&bytes[..cut]).unwrap_err(),
                DecodeError::Truncated,
                "cut={cut}"
            );
        }
    }

    #[test]
    fn sections_are_aligned_and_exact() {
        let set = sample_set(2_000, 17);
        let bytes = set.serialize();
        let total = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        assert_eq!(total as usize, bytes.len());
        let mut prev_end = V4_HEADER_LEN as u64;
        for i in 0..SEC_COUNT {
            let off = u64::from_le_bytes(bytes[32 + i * 16..40 + i * 16].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[40 + i * 16..48 + i * 16].try_into().unwrap());
            assert_eq!(off % 64, 0, "section {i} misaligned");
            assert!(off >= prev_end, "section {i} overlaps its predecessor");
            assert!(off + len <= total, "section {i} out of bounds");
            prev_end = off + len;
        }
    }

    #[test]
    fn mapped_corpus_round_trips_through_a_real_file() {
        let sets = [
            sample_set(0, 31),
            sample_set(100, 32),
            sample_set(5_000, 33),
        ];
        let buf = serialize_many(&sets);
        let path = std::env::temp_dir().join(format!("fesia-v3-corpus-{}", std::process::id()));
        std::fs::write(&path, &buf).unwrap();
        let file = Arc::new(MappedFile::open(&path).unwrap());
        let back = deserialize_many_mapped(&file).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.len(), sets.len());
        for (b, s) in back.iter().zip(&sets) {
            assert!(b.validate(), "mapped set fails validation");
            assert_same_set(b, s);
        }
        // The sets stay usable after the Arc handle is dropped: each
        // Section keeps the mapping alive.
        drop(file);
        assert_eq!(intersect_count(&back[1], &back[2]), {
            let a: std::collections::BTreeSet<u32> =
                sets[1].reordered_elements().iter().copied().collect();
            sets[2]
                .reordered_elements()
                .iter()
                .filter(|x| a.contains(x))
                .count()
        });
    }

    #[test]
    fn mapped_decode_rejects_what_it_must() {
        let set = sample_set(400, 41);
        let buf = serialize_many(std::slice::from_ref(&set));
        let aligned = |b: &[u8]| (b.as_ptr() as usize).is_multiple_of(8);

        // Legacy framing is owned-path-only.
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&1u64.to_le_bytes());
        legacy.extend_from_slice(&legacy_fixture(2).swap_remove(1).0);
        let f = Arc::new(MappedFile::from_bytes(legacy));
        assert_eq!(
            deserialize_many_mapped(&f).unwrap_err(),
            DecodeError::BadVersion(VERSION_V2)
        );

        // A tampered section-table length fails the exact-length check.
        let mut bad = buf.clone();
        bad[MANY_PROLOGUE + 40] ^= 0x01; // BITMAP len, low byte
        let f = Arc::new(MappedFile::from_bytes(bad));
        if aligned(f.bytes()) {
            assert_eq!(
                deserialize_many_mapped(&f).unwrap_err(),
                DecodeError::Corrupt
            );
        }

        // A tampered segment-meta entry breaks the prefix-sum invariant.
        let mut bad = buf.clone();
        let set_start = MANY_PROLOGUE;
        let moff = u64::from_le_bytes(
            buf[set_start + 32 + 2 * 16..set_start + 40 + 2 * 16]
                .try_into()
                .unwrap(),
        ) as usize;
        bad[set_start + moff + 2] ^= 0xFF; // offset bits of a compact entry
        let f = Arc::new(MappedFile::from_bytes(bad));
        if aligned(f.bytes()) {
            assert_eq!(
                deserialize_many_mapped(&f).unwrap_err(),
                DecodeError::Corrupt
            );
        }

        // A misaligned base is refused outright (never UB).
        let mut shifted = vec![0u8; 1];
        shifted.extend_from_slice(&buf[MANY_PROLOGUE..]);
        let f = Arc::new(MappedFile::from_bytes(shifted));
        if !aligned(&f.bytes()[1..]) {
            assert_eq!(
                SegmentedSet::deserialize_mapped(&f, 1).unwrap_err(),
                DecodeError::Corrupt
            );
        }

        // Truncation inside the first set block.
        let f = Arc::new(MappedFile::from_bytes(buf[..buf.len() - 1].to_vec()));
        assert_eq!(
            deserialize_many_mapped(&f).unwrap_err(),
            DecodeError::Truncated
        );
    }
}
