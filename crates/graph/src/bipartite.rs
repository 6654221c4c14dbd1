//! Two-sided (bipartite) graphs.
//!
//! The AL-VC construction operates on two bipartite layers: VMs ↔ ToR
//! switches and ToR switches ↔ optical packet switches. [`Bipartite`] keeps
//! the sides statically distinct via [`LeftId`] / [`RightId`] so an algorithm
//! cannot confuse a machine index with a switch index.

use serde::{Deserialize, Serialize};

/// Index of a node on the left side of a [`Bipartite`] graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LeftId(pub usize);

/// Index of a node on the right side of a [`Bipartite`] graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RightId(pub usize);

impl LeftId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl RightId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// An undirected bipartite multigraph with typed side weights.
///
/// `L` and `R` are the node weights of the two sides; `E` the edge weight.
///
/// # Example
///
/// ```
/// use alvc_graph::Bipartite;
///
/// let mut b: Bipartite<&str, &str, u32> = Bipartite::new();
/// let vm = b.add_left("vm-0");
/// let tor = b.add_right("tor-0");
/// b.add_edge(vm, tor, 10);
/// assert_eq!(b.left_degree(vm), 1);
/// assert_eq!(b.right_degree(tor), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bipartite<L, R, E> {
    left: Vec<L>,
    right: Vec<R>,
    edges: Vec<(LeftId, RightId, E)>,
    left_adj: Vec<Vec<(usize, RightId)>>,
    right_adj: Vec<Vec<(usize, LeftId)>>,
}

impl<L, R, E> Default for Bipartite<L, R, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L, R, E> Bipartite<L, R, E> {
    /// Creates an empty bipartite graph.
    pub fn new() -> Self {
        Bipartite {
            left: Vec::new(),
            right: Vec::new(),
            edges: Vec::new(),
            left_adj: Vec::new(),
            right_adj: Vec::new(),
        }
    }

    /// Number of left nodes.
    pub fn left_count(&self) -> usize {
        self.left.len()
    }

    /// Number of right nodes.
    pub fn right_count(&self) -> usize {
        self.right.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether both sides are empty.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty() && self.right.is_empty()
    }

    /// Adds a node to the left side.
    pub fn add_left(&mut self, weight: L) -> LeftId {
        let id = LeftId(self.left.len());
        self.left.push(weight);
        self.left_adj.push(Vec::new());
        id
    }

    /// Adds a node to the right side.
    pub fn add_right(&mut self, weight: R) -> RightId {
        let id = RightId(self.right.len());
        self.right.push(weight);
        self.right_adj.push(Vec::new());
        id
    }

    /// Adds an edge between a left and a right node.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, l: LeftId, r: RightId, weight: E) {
        assert!(l.0 < self.left.len(), "left endpoint {l:?} out of range");
        assert!(r.0 < self.right.len(), "right endpoint {r:?} out of range");
        let idx = self.edges.len();
        self.edges.push((l, r, weight));
        self.left_adj[l.0].push((idx, r));
        self.right_adj[r.0].push((idx, l));
    }

    /// Returns the weight of left node `l`.
    pub fn left_weight(&self, l: LeftId) -> Option<&L> {
        self.left.get(l.0)
    }

    /// Returns the weight of right node `r`.
    pub fn right_weight(&self, r: RightId) -> Option<&R> {
        self.right.get(r.0)
    }

    /// Degree of left node `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn left_degree(&self, l: LeftId) -> usize {
        self.left_adj[l.0].len()
    }

    /// Degree of right node `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn right_degree(&self, r: RightId) -> usize {
        self.right_adj[r.0].len()
    }

    /// Iterates over right neighbors of left node `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn left_neighbors(&self, l: LeftId) -> impl Iterator<Item = RightId> + '_ {
        self.left_adj[l.0].iter().map(|&(_, r)| r)
    }

    /// Iterates over left neighbors of right node `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn right_neighbors(&self, r: RightId) -> impl Iterator<Item = LeftId> + '_ {
        self.right_adj[r.0].iter().map(|&(_, l)| l)
    }

    /// Iterates over `(left, right, weight)` for all edges.
    pub fn edges(&self) -> impl Iterator<Item = (LeftId, RightId, &E)> {
        self.edges.iter().map(|(l, r, w)| (*l, *r, w))
    }

    /// Returns `true` if some edge joins `l` and `r`.
    pub fn contains_edge(&self, l: LeftId, r: RightId) -> bool {
        if l.0 >= self.left.len() || r.0 >= self.right.len() {
            return false;
        }
        self.left_adj[l.0].iter().any(|&(_, rr)| rr == r)
    }

    /// Left-to-right adjacency as plain index lists (used by the matching
    /// and covering algorithms).
    pub fn left_adjacency(&self) -> Vec<Vec<usize>> {
        self.left_adj
            .iter()
            .map(|adj| adj.iter().map(|&(_, r)| r.0).collect())
            .collect()
    }

    /// Returns `true` if every left node has at least one edge.
    pub fn left_side_covered(&self) -> bool {
        self.left_adj.iter().all(|adj| !adj.is_empty())
    }

    /// Builds a compact CSR (compressed sparse row) view of both adjacency
    /// directions, for algorithms whose inner loop walks neighborhoods
    /// (e.g. [`crate::cover::greedy_vertex_cover`]): rows are contiguous
    /// `u32` slices instead of per-node `Vec`s, so coverage updates are
    /// cache-friendly index walks.
    pub fn to_csr(&self) -> BipartiteCsr {
        fn pack(adj: &[Vec<(usize, impl Copy + Into<usize>)>]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
            let total: usize = adj.iter().map(Vec::len).sum();
            let mut offsets = Vec::with_capacity(adj.len() + 1);
            let mut edges = Vec::with_capacity(total);
            let mut targets = Vec::with_capacity(total);
            offsets.push(0u32);
            for row in adj {
                for &(e, t) in row {
                    edges.push(e as u32);
                    targets.push(t.into() as u32);
                }
                offsets.push(edges.len() as u32);
            }
            (offsets, edges, targets)
        }
        let (left_offsets, left_edges, left_targets) = pack(&self.left_adj);
        let (right_offsets, right_edges, right_targets) = pack(&self.right_adj);
        BipartiteCsr {
            left_offsets,
            left_edges,
            left_targets,
            right_offsets,
            right_edges,
            right_targets,
        }
    }
}

impl From<LeftId> for usize {
    fn from(l: LeftId) -> usize {
        l.0
    }
}

impl From<RightId> for usize {
    fn from(r: RightId) -> usize {
        r.0
    }
}

/// Compact CSR adjacency of a [`Bipartite`] graph: per-side offset arrays
/// into flat `u32` edge-id and opposite-endpoint arrays. Immutable snapshot;
/// rebuild after mutating the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteCsr {
    left_offsets: Vec<u32>,
    left_edges: Vec<u32>,
    left_targets: Vec<u32>,
    right_offsets: Vec<u32>,
    right_edges: Vec<u32>,
    right_targets: Vec<u32>,
}

impl BipartiteCsr {
    /// Number of left nodes.
    pub fn left_count(&self) -> usize {
        self.left_offsets.len() - 1
    }

    /// Number of right nodes.
    pub fn right_count(&self) -> usize {
        self.right_offsets.len() - 1
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.left_edges.len()
    }

    /// Degree of left node `l`.
    pub fn left_degree(&self, l: usize) -> usize {
        (self.left_offsets[l + 1] - self.left_offsets[l]) as usize
    }

    /// Degree of right node `r`.
    pub fn right_degree(&self, r: usize) -> usize {
        (self.right_offsets[r + 1] - self.right_offsets[r]) as usize
    }

    /// Iterates over `(edge index, right index)` incident to left node `l`.
    pub fn left_row(&self, l: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (lo, hi) = (
            self.left_offsets[l] as usize,
            self.left_offsets[l + 1] as usize,
        );
        self.left_edges[lo..hi]
            .iter()
            .zip(&self.left_targets[lo..hi])
            .map(|(&e, &t)| (e as usize, t as usize))
    }

    /// Iterates over `(edge index, left index)` incident to right node `r`.
    pub fn right_row(&self, r: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (lo, hi) = (
            self.right_offsets[r] as usize,
            self.right_offsets[r + 1] as usize,
        );
        self.right_edges[lo..hi]
            .iter()
            .zip(&self.right_targets[lo..hi])
            .map(|(&e, &t)| (e as usize, t as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Bipartite<u32, u32, ()> {
        // 3 machines, 2 switches; m0,m1 -> s0; m2 -> s1; m1 -> s1.
        let mut b = Bipartite::new();
        let m: Vec<_> = (0..3).map(|i| b.add_left(i)).collect();
        let s: Vec<_> = (0..2).map(|i| b.add_right(i)).collect();
        b.add_edge(m[0], s[0], ());
        b.add_edge(m[1], s[0], ());
        b.add_edge(m[2], s[1], ());
        b.add_edge(m[1], s[1], ());
        b
    }

    #[test]
    fn counts() {
        let b = small();
        assert_eq!(b.left_count(), 3);
        assert_eq!(b.right_count(), 2);
        assert_eq!(b.edge_count(), 4);
        assert!(!b.is_empty());
    }

    #[test]
    fn degrees() {
        let b = small();
        assert_eq!(b.left_degree(LeftId(1)), 2);
        assert_eq!(b.right_degree(RightId(0)), 2);
        assert_eq!(b.right_degree(RightId(1)), 2);
    }

    #[test]
    fn neighbors() {
        let b = small();
        let mut n: Vec<_> = b.left_neighbors(LeftId(1)).collect();
        n.sort();
        assert_eq!(n, vec![RightId(0), RightId(1)]);
        let mut m: Vec<_> = b.right_neighbors(RightId(1)).collect();
        m.sort();
        assert_eq!(m, vec![LeftId(1), LeftId(2)]);
    }

    #[test]
    fn contains_edge_checks_bounds() {
        let b = small();
        assert!(b.contains_edge(LeftId(0), RightId(0)));
        assert!(!b.contains_edge(LeftId(0), RightId(1)));
        assert!(!b.contains_edge(LeftId(99), RightId(0)));
    }

    #[test]
    fn left_adjacency_matches_edges() {
        let b = small();
        let adj = b.left_adjacency();
        assert_eq!(adj[0], vec![0]);
        assert_eq!(adj[1], vec![0, 1]);
        assert_eq!(adj[2], vec![1]);
    }

    #[test]
    fn left_side_covered_detects_isolated_machine() {
        let mut b = small();
        assert!(b.left_side_covered());
        b.add_left(99);
        assert!(!b.left_side_covered());
    }

    #[test]
    fn csr_rows_match_adjacency() {
        let b = small();
        let csr = b.to_csr();
        assert_eq!(csr.left_count(), 3);
        assert_eq!(csr.right_count(), 2);
        assert_eq!(csr.edge_count(), 4);
        for l in 0..3 {
            assert_eq!(csr.left_degree(l), b.left_degree(LeftId(l)));
            let row: Vec<usize> = csr.left_row(l).map(|(_, r)| r).collect();
            let adj: Vec<usize> = b.left_neighbors(LeftId(l)).map(|r| r.0).collect();
            assert_eq!(row, adj);
        }
        for r in 0..2 {
            assert_eq!(csr.right_degree(r), b.right_degree(RightId(r)));
            let row: Vec<usize> = csr.right_row(r).map(|(_, l)| l).collect();
            let adj: Vec<usize> = b.right_neighbors(RightId(r)).map(|l| l.0).collect();
            assert_eq!(row, adj);
        }
        // Edge ids in rows refer back to the edge list.
        for l in 0..3 {
            for (e, r) in csr.left_row(l) {
                let (el, er, ()) = b.edges().nth(e).unwrap();
                assert_eq!((el.0, er.0), (l, r));
            }
        }
    }

    #[test]
    fn csr_of_empty_graph() {
        let b: Bipartite<(), (), ()> = Bipartite::new();
        let csr = b.to_csr();
        assert_eq!(csr.left_count(), 0);
        assert_eq!(csr.right_count(), 0);
        assert_eq!(csr.edge_count(), 0);
    }

    #[test]
    fn weights_accessible() {
        let b = small();
        assert_eq!(b.left_weight(LeftId(2)), Some(&2));
        assert_eq!(b.right_weight(RightId(0)), Some(&0));
        assert_eq!(b.left_weight(LeftId(9)), None);
    }
}
