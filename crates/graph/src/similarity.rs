//! Neighborhood similarity and link prediction — the "common friends"
//! application from the paper's introduction (§I): recommending `v` to `u`
//! because they share many neighbors is one set intersection per candidate
//! pair, exactly the small-intersection regime FESIA targets.

use crate::csr::CsrGraph;
use fesia_baselines::SliceIntersector;
use fesia_core::simjoin::{self_join, SimjoinResult, Threshold};
use fesia_core::{FesiaParams, SegmentedSet};

/// Jaccard similarity of two vertices' neighborhoods:
/// `|N(u) ∩ N(v)| / |N(u) ∪ N(v)|` (0 when both are isolated).
pub fn jaccard(g: &CsrGraph, u: u32, v: u32, method: &dyn SliceIntersector) -> f64 {
    let inter = method.count(g.neighbors(u), g.neighbors(v));
    let union = g.degree(u) + g.degree(v) - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Cosine similarity of neighborhoods:
/// `|N(u) ∩ N(v)| / sqrt(deg(u) · deg(v))`.
pub fn cosine(g: &CsrGraph, u: u32, v: u32, method: &dyn SliceIntersector) -> f64 {
    let inter = method.count(g.neighbors(u), g.neighbors(v));
    let denom = (g.degree(u) as f64 * g.degree(v) as f64).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        inter as f64 / denom
    }
}

/// A scored link-prediction candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The recommended vertex.
    pub vertex: u32,
    /// Number of common neighbors with the query vertex.
    pub common: usize,
    /// Jaccard score.
    pub jaccard: f64,
}

/// The distance-two frontier of `u`: `∪_{w ∈ N(u)} N(w)`, ascending and
/// deduplicated, computed as a FESIA k-way union over the encoded
/// neighborhoods ([`fesia_core::kway_union`]). This is the candidate set
/// of every neighborhood-based recommender: only these vertices can share
/// a neighbor with `u`.
pub fn neighborhood_union(g: &CsrGraph, u: u32) -> Vec<u32> {
    fesia_obs::metrics().graph_neighborhood_unions.inc();
    let params = FesiaParams::auto();
    let sets: Vec<SegmentedSet> = g
        .neighbors(u)
        .iter()
        .map(|&w| g.neighbors(w))
        .filter(|n| !n.is_empty())
        .map(|n| SegmentedSet::build(n, &params).expect("adjacency lists are sorted node ids"))
        .collect();
    if sets.is_empty() {
        return Vec::new();
    }
    let refs: Vec<&SegmentedSet> = sets.iter().collect();
    fesia_core::kway_union(&refs)
}

/// Top-k link predictions for `u`: non-adjacent vertices at distance two,
/// ranked by common-neighbor count (ties by Jaccard, then id).
///
/// Distance-two candidates are exactly the vertices whose recommendation
/// score can be non-zero, so the candidate set is [`neighborhood_union`].
pub fn recommend(g: &CsrGraph, u: u32, k: usize, method: &dyn SliceIntersector) -> Vec<Candidate> {
    let mut candidates = neighborhood_union(g, u);
    // Drop the query vertex and its existing neighbors.
    candidates.retain(|&v| v != u && g.neighbors(u).binary_search(&v).is_err());

    let mut scored: Vec<Candidate> = candidates
        .into_iter()
        .map(|v| {
            let common = method.count(g.neighbors(u), g.neighbors(v));
            Candidate {
                vertex: v,
                common,
                jaccard: {
                    let union = g.degree(u) + g.degree(v) - common;
                    if union == 0 {
                        0.0
                    } else {
                        common as f64 / union as f64
                    }
                },
            }
        })
        .filter(|c| c.common > 0)
        .collect();
    scored.sort_by(|a, b| {
        b.common
            .cmp(&a.common)
            .then(
                b.jaccard
                    .partial_cmp(&a.jaccard)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.vertex.cmp(&b.vertex))
    });
    scored.truncate(k);
    scored
}

/// All vertex pairs `(u, v)`, `u < v`, whose neighborhoods meet
/// `threshold` — the whole-graph generalization of [`jaccard`]: instead
/// of scoring one pair at a time, the threshold-aware filter cascade in
/// [`fesia_core::simjoin`] prunes the quadratic pair space down to the
/// qualifying pairs (prefix filter, XOR bitmap filter, then the exact
/// count).
///
/// `threads = 0` uses all available cores. Returns the qualifying pairs
/// plus per-tier cascade statistics.
pub fn similar_pairs(g: &CsrGraph, threshold: Threshold, threads: usize) -> SimjoinResult {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    let lists: Vec<Vec<u32>> = (0..g.num_nodes() as u32)
        .map(|u| g.neighbors(u).to_vec())
        .collect();
    self_join(&lists, threshold, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fesia_baselines::Method;

    /// Serializes the tests that call [`neighborhood_union`] (directly or
    /// through [`recommend`]): one of them asserts an exact delta of the
    /// process-wide `graph_neighborhood_unions` counter.
    fn union_counter_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Two triangles sharing an edge plus a pendant:
    /// 0-1, 0-2, 1-2, 1-3, 2-3, 3-4.
    fn sample() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)])
    }

    #[test]
    fn jaccard_known_values() {
        let g = sample();
        let m = Method::Scalar;
        // N(0) = {1,2}, N(3) = {1,2,4}: inter 2, union 3.
        assert!((jaccard(&g, 0, 3, &m) - 2.0 / 3.0).abs() < 1e-12);
        // N(0) = {1,2}, N(4) = {3}: disjoint.
        assert_eq!(jaccard(&g, 0, 4, &m), 0.0);
        // Symmetry.
        assert_eq!(jaccard(&g, 0, 3, &m), jaccard(&g, 3, 0, &m));
    }

    #[test]
    fn cosine_known_values() {
        let g = sample();
        let m = Method::Scalar;
        // inter(0,3) = 2, deg 2 and 3.
        assert!((cosine(&g, 0, 3, &m) - 2.0 / 6.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn recommendation_finds_the_missing_link() {
        let _guard = union_counter_lock();
        let g = sample();
        let m = Method::Scalar;
        // 0 and 3 share two neighbors and are not adjacent: the top pick.
        let recs = recommend(&g, 0, 3, &m);
        assert_eq!(recs[0].vertex, 3);
        assert_eq!(recs[0].common, 2);
        // Existing neighbors are never recommended.
        assert!(recs.iter().all(|c| ![1u32, 2].contains(&c.vertex)));
    }

    #[test]
    fn all_methods_give_identical_recommendations() {
        let _guard = union_counter_lock();
        let g = crate::generate::barabasi_albert(600, 4, 77);
        let want = recommend(&g, 5, 10, &Method::Scalar);
        for m in Method::all() {
            let got = recommend(&g, 5, 10, &m);
            assert_eq!(got.len(), want.len(), "method={}", m.name());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.vertex, b.vertex, "method={}", m.name());
                assert_eq!(a.common, b.common, "method={}", m.name());
            }
        }
    }

    #[test]
    fn neighborhood_union_matches_flat_merge() {
        let _guard = union_counter_lock();
        let g = crate::generate::barabasi_albert(400, 3, 11);
        let before = fesia_obs::metrics().graph_neighborhood_unions.get();
        for u in [0u32, 7, 133, 399] {
            let mut want: Vec<u32> = g
                .neighbors(u)
                .iter()
                .flat_map(|&w| g.neighbors(w).iter().copied())
                .collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(neighborhood_union(&g, u), want, "u={u}");
        }
        assert_eq!(
            fesia_obs::metrics().graph_neighborhood_unions.get() - before,
            4
        );
    }

    #[test]
    fn similar_pairs_matches_pairwise_jaccard() {
        let g = crate::generate::barabasi_albert(300, 4, 42);
        let j = 0.3;
        let res = similar_pairs(&g, Threshold::Jaccard(j), 1);
        let mut want = Vec::new();
        for u in 0..g.num_nodes() as u32 {
            for v in (u + 1)..g.num_nodes() as u32 {
                let c = Method::Scalar.count(g.neighbors(u), g.neighbors(v));
                let union = g.degree(u) + g.degree(v) - c;
                // Cross-multiplied predicate, exactly as simjoin decides it.
                if c as f64 * (1.0 + j) >= j * (union + c) as f64 {
                    want.push((u, v));
                }
            }
        }
        assert_eq!(res.pairs, want);
        assert_eq!(
            res.stats.candidates,
            res.stats.bitmap_rejected + res.stats.early_exited + res.stats.verified
        );
    }

    #[test]
    fn isolated_vertices_are_harmless() {
        let _guard = union_counter_lock();
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let m = Method::Scalar;
        assert_eq!(jaccard(&g, 2, 0, &m), 0.0);
        assert_eq!(cosine(&g, 2, 2, &m), 0.0);
        assert!(recommend(&g, 2, 5, &m).is_empty());
    }
}
