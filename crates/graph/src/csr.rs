//! Compressed sparse row (CSR) graphs with sorted adjacency lists.
//!
//! Sorted adjacency is the precondition for intersection-based graph
//! analytics: the common neighbors of `u` and `v` are exactly
//! `N(u) ∩ N(v)`, computable by any method in this workspace.

/// An undirected (or degree-oriented) graph in CSR form.
///
/// Node ids are dense `0..num_nodes`; every adjacency list is sorted
/// ascending and duplicate-free, with self-loops removed.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    neighbors: Vec<u32>,
    num_nodes: usize,
}

impl CsrGraph {
    /// Build an undirected graph from an edge list. Duplicate edges, both
    /// orientations, and self-loops are normalized away.
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> CsrGraph {
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            assert!(
                (u as usize) < num_nodes && (v as usize) < num_nodes,
                "edge ({u},{v}) out of range"
            );
            if u != v {
                pairs.push((u, v));
                pairs.push((v, u));
            }
        }
        Self::from_directed_pairs(num_nodes, pairs)
    }

    /// Build from already-directed pairs (used internally and by
    /// [`CsrGraph::orient_by_degree`]). Sorts and deduplicates.
    fn from_directed_pairs(num_nodes: usize, mut pairs: Vec<(u32, u32)>) -> CsrGraph {
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0u64; num_nodes + 1];
        for &(u, _) in &pairs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            offsets[i + 1] += offsets[i];
        }
        let neighbors = pairs.into_iter().map(|(_, v)| v).collect();
        CsrGraph {
            offsets,
            neighbors,
            num_nodes,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of *directed* adjacency entries (2x the undirected edge count
    /// for a graph built by [`CsrGraph::from_edges`]).
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// The adjacency lists of the consecutive vertices `vertices`,
    /// concatenated in vertex order: one contiguous slice of the CSR
    /// neighbour array, so an edge loop over a vertex range can look
    /// ahead along its edges across vertex boundaries.
    #[inline]
    pub fn neighbors_in(&self, vertices: std::ops::Range<usize>) -> &[u32] {
        let lo = self.offsets[vertices.start] as usize;
        let hi = self.offsets[vertices.end] as usize;
        &self.neighbors[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Degree-order the graph for triangle counting: keep edge `u -> v`
    /// only if `(degree(u), u) < (degree(v), v)`. The result is a DAG where
    /// every triangle `{a,b,c}` appears exactly once as an edge `(u,v)`
    /// plus a common out-neighbor, turning triangle counting into
    /// `sum over edges of |N+(u) ∩ N+(v)|`.
    pub fn orient_by_degree(&self) -> CsrGraph {
        let rank = |v: u32| (self.degree(v), v);
        let mut pairs = Vec::with_capacity(self.num_edges());
        for u in 0..self.num_nodes as u32 {
            for &v in self.neighbors(u) {
                if rank(u) < rank(v) {
                    pairs.push((u, v));
                }
            }
        }
        CsrGraph::from_directed_pairs(self.num_nodes, pairs)
    }

    /// Check structural invariants (sorted, deduped, in-range adjacency).
    pub fn validate(&self) -> bool {
        self.offsets.len() == self.num_nodes + 1
            && *self.offsets.last().unwrap() as usize == self.neighbors.len()
            && (0..self.num_nodes as u32).all(|v| {
                let n = self.neighbors(v);
                n.windows(2).all(|w| w[0] < w[1])
                    && n.iter().all(|&x| (x as usize) < self.num_nodes && x != v)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0-1, 0-2, 1-2, 1-3, 2-3: two triangles (0,1,2) and (1,2,3).
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn builds_sorted_symmetric_adjacency() {
        let g = diamond();
        assert!(g.validate());
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(3), &[1, 2]);
        assert_eq!(g.degree(1), 3);
    }

    #[test]
    fn normalizes_duplicates_and_self_loops() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert!(g.validate());
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
    }

    #[test]
    fn degree_orientation_is_a_dag_with_one_copy_per_edge() {
        let g = diamond();
        let d = g.orient_by_degree();
        assert!(d.validate());
        assert_eq!(d.num_directed_edges(), g.num_edges());
        // Every oriented edge goes from lower (degree, id) to higher.
        for u in 0..4u32 {
            for &v in d.neighbors(u) {
                assert!((g.degree(u), u) < (g.degree(v), v));
            }
        }
    }

    #[test]
    fn neighbors_in_concatenates_consecutive_lists() {
        let g = diamond();
        assert_eq!(g.neighbors_in(0..4).len(), g.num_directed_edges());
        assert_eq!(g.neighbors_in(1..3), &[0, 2, 3, 0, 1, 3]);
        assert_eq!(g.neighbors_in(2..2), &[] as &[u32]);
        let iso = CsrGraph::from_edges(4, &[(1, 2)]);
        assert_eq!(iso.neighbors_in(0..1), &[] as &[u32]);
        assert_eq!(iso.neighbors_in(0..3), &[2, 1]);
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::from_edges(5, &[]);
        assert!(g.validate());
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }
}
