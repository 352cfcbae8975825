//! Triangle counting via set intersection (paper §VII-F, Fig. 13).
//!
//! The graph is degree-oriented into a DAG so each triangle is counted
//! exactly once: `triangles = Σ_{(u,v) ∈ E+} |N+(u) ∩ N+(v)|`. The
//! intersection primitive is pluggable — any baseline
//! [`Method`](fesia_baselines::Method) on the raw
//! adjacency slices, or FESIA over per-vertex pre-encoded neighborhoods —
//! and the edge loop parallelizes over cores (the `FESIA4core/8core`
//! series of Fig. 13).

use crate::csr::CsrGraph;
use fesia_baselines::SliceIntersector;
use fesia_core::{
    DynamicSet, FesiaParams, KernelTable, LiveQuery, SegmentedSet, SetStore, Snapshot,
};
use fesia_exec::Executor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest vertices per executor chunk claim. Power-law degree
/// distributions make per-vertex cost wildly uneven, so chunks stay small
/// enough for hub vertices not to strand a claim's worth of work on one
/// thread.
const MIN_VERTICES_PER_CHUNK: usize = 16;

/// How many edges ahead [`FesiaGraph::count_triangles`] resolves a
/// neighbour's catalog slot and hints its set struct
/// ([`Snapshot::prefetch`]).
const STRUCT_LOOKAHEAD: usize = 8;

/// How many edges ahead [`FesiaGraph::count_triangles`] hints a
/// neighbour's first bitmap and element lines
/// ([`SegmentedSet::prefetch_head`]). Half the struct distance, so the
/// struct has arrived by the time its array pointers are read. Both
/// distances were measured, not tuned per host (DESIGN.md "Resolution
/// latency").
const HEAD_LOOKAHEAD: usize = 4;

/// Reference triangle count (hash-join per edge); the correctness oracle.
pub fn count_reference(g: &CsrGraph) -> u64 {
    let d = g.orient_by_degree();
    let mut total = 0u64;
    for u in 0..d.num_nodes() as u32 {
        let nu: std::collections::HashSet<u32> = d.neighbors(u).iter().copied().collect();
        for &v in d.neighbors(u) {
            total += d.neighbors(v).iter().filter(|w| nu.contains(w)).count() as u64;
        }
    }
    total
}

/// Count triangles with a slice-based intersection method on `threads`
/// cores. Returns the count and elapsed wall time (orientation excluded —
/// it is shared preprocessing for every method).
pub fn count_with_method(
    oriented: &CsrGraph,
    method: &dyn SliceIntersector,
    threads: usize,
) -> (u64, Duration) {
    assert!(threads >= 1);
    let start = Instant::now();
    let n = oriented.num_nodes();
    let total = Executor::global()
        .map_reduce(
            n,
            MIN_VERTICES_PER_CHUNK,
            threads,
            |range| {
                let mut acc = 0u64;
                for u in range {
                    let u = u as u32;
                    for &v in oriented.neighbors(u) {
                        acc += method.count(oriented.neighbors(u), oriented.neighbors(v)) as u64;
                    }
                }
                acc
            },
            |x, y| x + y,
        )
        .unwrap_or(0);
    (total, start.elapsed())
}

/// Per-vertex FESIA encodings of the oriented out-neighborhoods, held
/// in an epoch-pinned [`SetStore`]: the triangle loop pins one
/// [`Snapshot`] and shares it across every worker, so an edge-stream
/// writer publishing neighborhood updates through
/// [`FesiaGraph::store`] never blocks or tears a running count.
pub struct FesiaGraph {
    store: SetStore,
    num_nodes: usize,
    /// Wall time of the offline encoding pass (Table III's
    /// "construction time" column).
    pub construction_time: Duration,
}

impl FesiaGraph {
    /// Encode every out-neighborhood of the oriented graph.
    pub fn build(oriented: &CsrGraph, params: &FesiaParams) -> FesiaGraph {
        let start = Instant::now();
        // Each encoding goes straight behind its `Arc`: staging them in
        // a `Vec<SegmentedSet>` first would copy every struct once more.
        let sets: Vec<DynamicSet> = (0..oriented.num_nodes() as u32)
            .map(|v| {
                let set = SegmentedSet::build(oriented.neighbors(v), params)
                    .expect("adjacency lists are sorted node ids");
                DynamicSet::from_base(Arc::new(set), *params)
            })
            .collect();
        let num_nodes = sets.len();
        FesiaGraph {
            store: SetStore::from_dynamic(sets),
            num_nodes,
            construction_time: start.elapsed(),
        }
    }

    /// Pin the current neighborhood catalog for reading.
    pub fn snapshot(&self) -> Snapshot<'_> {
        self.store.pin()
    }

    /// The underlying store (writers publish neighborhood updates here).
    pub fn store(&self) -> &SetStore {
        &self.store
    }

    /// Total memory of the encodings.
    pub fn memory_bytes(&self) -> usize {
        let snap = self.store.pin();
        (0..self.num_nodes as u32)
            .filter_map(|v| snap.get(v))
            .map(|r| r.set().base().memory_bytes())
            .sum()
    }

    /// Count triangles with FESIA on `threads` cores.
    pub fn count_triangles(
        &self,
        oriented: &CsrGraph,
        table: &KernelTable,
        threads: usize,
    ) -> (u64, Duration) {
        assert!(threads >= 1);
        fesia_obs::metrics().graph_triangle_runs.inc();
        // One stateless planner shared by every worker: millions of edge
        // intersections plan from their summaries alone.
        let planner = fesia_core::IntersectPlanner::current();
        // One epoch pin for the whole region (`Snapshot` is `Sync`; the
        // submitter blocks until every chunk completes), so all workers
        // count against the same published neighborhoods.
        let snap = self.store.pin();
        let start = Instant::now();
        let n = oriented.num_nodes();
        let total = Executor::global()
            .map_reduce(
                n,
                MIN_VERTICES_PER_CHUNK,
                threads,
                |range| {
                    // The chunk's edges as one stream: the prefetch
                    // pipeline looks ahead along it across vertex
                    // boundaries (out-degrees average ~5, so a
                    // lookahead inside one list would miss most edges).
                    let targets = oriented.neighbors_in(range.clone());
                    let mut acc = 0u64;
                    let mut e = 0usize;
                    for u in range {
                        let deg = oriented.degree(u as u32);
                        if deg == 0 {
                            continue;
                        }
                        let su = snap.get(u as u32).expect("vertex ids are dense").set();
                        for &v in &targets[e..e + deg] {
                            if let Some(&w) = targets.get(e + STRUCT_LOOKAHEAD) {
                                snap.prefetch(w);
                            }
                            if let Some(r) =
                                targets.get(e + HEAD_LOOKAHEAD).and_then(|&w| snap.get(w))
                            {
                                r.set().base().prefetch_head();
                            }
                            // Strategy selection per pair (paper §VI):
                            // adjacency lists are mostly tiny and often
                            // skewed, so the planner's adaptive pair plan
                            // (probe vs merge) is the faithful way
                            // to run FESIA on a graph workload.
                            let pair = [su, snap.get(v).expect("vertex ids are dense").set()];
                            acc += LiveQuery::and(&pair).count(table, &planner) as u64;
                            e += 1;
                        }
                    }
                    fesia_obs::metrics()
                        .graph_edge_intersections
                        .add(targets.len() as u64);
                    acc
                },
                |x, y| x + y,
            )
            .unwrap_or(0);
        (total, start.elapsed())
    }
}

/// Common-neighbor query (the "common friends" motivation of §I): count of
/// shared neighbors of `u` and `v` in the *undirected* graph.
pub fn common_neighbors(g: &CsrGraph, u: u32, v: u32, method: &dyn SliceIntersector) -> usize {
    method.count(g.neighbors(u), g.neighbors(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{barabasi_albert, erdos_renyi};
    use fesia_baselines::Method;

    #[test]
    fn known_small_graphs() {
        // Triangle.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(count_reference(&g), 1);
        // Diamond: 2 triangles.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(count_reference(&g), 2);
        // K5: C(5,3) = 10 triangles.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in 0..u {
                edges.push((u, v));
            }
        }
        let g = CsrGraph::from_edges(5, &edges);
        assert_eq!(count_reference(&g), 10);
    }

    #[test]
    fn every_method_counts_the_same_triangles() {
        let g = barabasi_albert(1_500, 4, 13);
        let want = count_reference(&g);
        assert!(want > 0, "BA graph should contain triangles");
        let oriented = g.orient_by_degree();
        for m in Method::all() {
            let (got, _) = count_with_method(&oriented, &m, 1);
            assert_eq!(got, want, "method={}", m.name());
        }
    }

    #[test]
    fn fesia_counts_the_same_triangles() {
        let g = barabasi_albert(1_200, 3, 29);
        let want = count_reference(&g);
        let oriented = g.orient_by_degree();
        let fg = FesiaGraph::build(&oriented, &FesiaParams::auto());
        let table = KernelTable::auto();
        for threads in [1usize, 2, 4] {
            let (got, _) = fg.count_triangles(&oriented, &table, threads);
            assert_eq!(got, want, "threads={threads}");
        }
        assert!(fg.memory_bytes() > 0);
    }

    /// `count_triangles` on 1 and 2 threads against the reference.
    fn assert_fesia_matches_reference(g: &CsrGraph, what: &str) {
        let want = count_reference(g);
        let oriented = g.orient_by_degree();
        let fg = FesiaGraph::build(&oriented, &FesiaParams::auto());
        let table = KernelTable::auto();
        for threads in [1usize, 2] {
            let (got, _) = fg.count_triangles(&oriented, &table, threads);
            assert_eq!(got, want, "{what}, threads={threads}");
        }
    }

    /// The clique on `vertices`.
    fn clique(vertices: std::ops::Range<u32>) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for u in vertices.clone() {
            for v in vertices.start..u {
                edges.push((u, v));
            }
        }
        edges
    }

    #[test]
    fn isolated_vertices_and_tiny_out_degrees() {
        assert_fesia_matches_reference(&CsrGraph::from_edges(10, &[]), "no edges");
        // One triangle among isolated vertices, spread across chunks.
        let g = CsrGraph::from_edges(40, &[(5, 17), (17, 33), (5, 33)]);
        assert_fesia_matches_reference(&g, "lone triangle");
        // A star: every leaf has out-degree 1 (towards the hub), the hub
        // out-degree 0; a few leaf-leaf edges close triangles.
        let mut edges: Vec<(u32, u32)> = (1..30).map(|v| (0, v)).collect();
        edges.extend([(1, 2), (3, 4), (28, 29)]);
        assert_fesia_matches_reference(&CsrGraph::from_edges(35, &edges), "star");
    }

    #[test]
    fn lists_shorter_and_longer_than_the_lookahead() {
        // Cliques of every size around both lookahead distances: a
        // clique on k vertices orients to out-degrees 0..k-1.
        let mut edges = Vec::new();
        let mut next = 0u32;
        for k in [2u32, 3, 4, 5, 8, 9, 12, 17] {
            edges.extend(clique(next..next + k));
            next += k + 1; // leave an isolated vertex between cliques
        }
        assert_fesia_matches_reference(&CsrGraph::from_edges(next as usize, &edges), "cliques");
        // One clique wider than the struct lookahead on its own.
        assert_fesia_matches_reference(&CsrGraph::from_edges(20, &clique(0..20)), "K20");
    }

    #[test]
    fn vertex_counts_around_the_chunk_edges() {
        let c = MIN_VERTICES_PER_CHUNK;
        for n in [c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1, 3 * c + 1] {
            let g = erdos_renyi(n, n * 3, n as u64);
            assert_fesia_matches_reference(&g, &format!("G({n}, {})", n * 3));
        }
    }

    #[test]
    fn neighbourhoods_with_published_deltas_count_the_same() {
        let g = barabasi_albert(600, 5, 41);
        let want = count_reference(&g);
        let oriented = g.orient_by_degree();
        let params = FesiaParams::auto();
        let fg = FesiaGraph::build(&oriented, &params);
        // Republish every third neighbourhood as a different base plus a
        // delta with the same live contents: the first neighbour moves
        // into the add list, and an extra value into the delete list.
        let extra = oriented.num_nodes() as u32 + 7;
        fg.store().update(|_, txn| {
            for u in (0..oriented.num_nodes() as u32).step_by(3) {
                let live = oriented.neighbors(u);
                let mut base: Vec<u32> = live.iter().skip(1).copied().collect();
                base.push(extra);
                let mut s = fesia_core::DynamicSet::build(&base, &params).unwrap();
                if let Some(&first) = live.first() {
                    s.insert_deferred(first).unwrap();
                }
                s.remove_deferred(extra).unwrap();
                assert_eq!(s.to_sorted_vec(), live);
                txn.push((u, Some(s)));
            }
        });
        assert!(fg.snapshot().get(0).unwrap().set().delta_len() > 0);
        let table = KernelTable::auto();
        for threads in [1usize, 2] {
            let (got, _) = fg.count_triangles(&oriented, &table, threads);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn parallel_method_count_matches() {
        let g = erdos_renyi(2_000, 20_000, 17);
        let want = count_reference(&g);
        let oriented = g.orient_by_degree();
        for threads in [1usize, 3, 8] {
            let (got, _) = count_with_method(&oriented, &Method::Scalar, threads);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn common_neighbors_queries() {
        let g = CsrGraph::from_edges(5, &[(0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (0, 4)]);
        for m in Method::all() {
            assert_eq!(common_neighbors(&g, 0, 1, &m), 3, "method={}", m.name());
            assert_eq!(common_neighbors(&g, 2, 3, &m), 2, "method={}", m.name());
        }
    }

    use crate::csr::CsrGraph;
}
