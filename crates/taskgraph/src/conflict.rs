//! Bounding-box conflict graph construction.

use std::fmt;

use fastgr_grid::Rect;

use crate::bucket::BucketGrid;

/// The task conflict graph: tasks are vertices, an edge joins every pair of
/// tasks whose bounding boxes overlap (they would touch the same routing
/// resources and must not execute concurrently).
///
/// Construction uses a uniform bucket grid so the expected cost is close to
/// linear in the number of tasks plus the number of actual conflicts,
/// instead of the all-pairs `O(n^2)`. Each overlapping pair is emitted once,
/// from the bucket holding the lower-left corner of the two boxes'
/// intersection. Adjacency is stored compressed (CSR): task `t`'s
/// neighbours are `head[first_out[t]..first_out[t + 1]]`, sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictGraph {
    first_out: Vec<usize>,
    head: Vec<u32>,
}

impl ConflictGraph {
    /// Builds the conflict graph of `boxes` (task `i` owns `boxes[i]`).
    pub fn from_bounding_boxes(boxes: &[Rect]) -> Self {
        let grid = BucketGrid::covering(boxes);

        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); grid.len()];
        for (i, b) in boxes.iter().enumerate() {
            for cell in grid.rows(b).flatten() {
                buckets[cell].push(i as u32);
            }
        }

        // Two boxes' intersection has its lower-left corner in the bucket
        // at the larger of their first columns and the larger of their
        // first rows; both boxes cover that bucket, so emitting the pair
        // there alone emits it exactly once.
        let first: Vec<(usize, usize)> = boxes.iter().map(|b| grid.first(b)).collect();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for ((row, col), bucket) in grid.positions().zip(&buckets) {
            for (n, &a) in bucket.iter().enumerate() {
                let fa = first[a as usize];
                for &b in &bucket[n + 1..] {
                    let fb = first[b as usize];
                    if fa.0.max(fb.0) == col
                        && fa.1.max(fb.1) == row
                        && boxes[a as usize].intersects(&boxes[b as usize])
                    {
                        pairs.push((a, b));
                    }
                }
            }
        }
        Self::from_pairs(boxes.len(), &pairs)
    }

    /// Builds the conflict graph by the naive all-pairs scan — the `O(n²)`
    /// reference implementation the bucketised construction is checked
    /// against (differentially tested here and by `cargo xtask check`).
    pub fn from_bounding_boxes_naive(boxes: &[Rect]) -> Self {
        let n = boxes.len();
        let mut pairs = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if boxes[a].intersects(&boxes[b]) {
                    pairs.push((a as u32, b as u32));
                }
            }
        }
        Self::from_pairs(n, &pairs)
    }

    /// The CSR graph over `n` tasks with one edge per entry of `pairs`
    /// (each unordered pair listed once).
    fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        let mut first_out = vec![0usize; n + 1];
        for &(a, b) in pairs {
            first_out[a as usize + 1] += 1;
            first_out[b as usize + 1] += 1;
        }
        for t in 0..n {
            first_out[t + 1] += first_out[t];
        }
        let mut fill = first_out.clone();
        let mut head = vec![0u32; first_out[n]];
        for &(a, b) in pairs {
            head[fill[a as usize]] = b;
            fill[a as usize] += 1;
            head[fill[b as usize]] = a;
            fill[b as usize] += 1;
        }
        for t in 0..n {
            head[first_out[t]..first_out[t + 1]].sort_unstable();
        }
        Self { first_out, head }
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.first_out.len() - 1
    }

    /// Number of conflict edges.
    pub fn edge_count(&self) -> usize {
        self.head.len() / 2
    }

    /// The tasks conflicting with `task`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn neighbors(&self, task: u32) -> &[u32] {
        let t = task as usize;
        &self.head[self.first_out[t]..self.first_out[t + 1]]
    }

    /// Whether tasks `a` and `b` conflict.
    pub fn conflicts(&self, a: u32, b: u32) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }
}

impl fmt::Display for ConflictGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conflict graph: {} tasks, {} edges",
            self.task_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_grid::Point2;
    use proptest::prelude::*;

    fn rect(x0: u16, y0: u16, x1: u16, y1: u16) -> Rect {
        Rect::new(Point2::new(x0, y0), Point2::new(x1, y1))
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = ConflictGraph::from_bounding_boxes(&[]);
        assert_eq!(g.task_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn detects_overlaps_and_ignores_disjoint() {
        let g = ConflictGraph::from_bounding_boxes(&[
            rect(0, 0, 4, 4),
            rect(3, 3, 8, 8),
            rect(20, 20, 25, 25),
        ]);
        assert!(g.conflicts(0, 1));
        assert!(g.conflicts(1, 0));
        assert!(!g.conflicts(0, 2));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn edge_touching_counts_as_conflict() {
        let g = ConflictGraph::from_bounding_boxes(&[rect(0, 0, 2, 2), rect(2, 2, 4, 4)]);
        assert!(g.conflicts(0, 1));
    }

    #[test]
    fn no_self_edges() {
        let g = ConflictGraph::from_bounding_boxes(&[rect(0, 0, 4, 4)]);
        assert!(g.neighbors(0).is_empty());
    }

    #[test]
    fn pairs_meeting_on_a_bucket_boundary_are_found_once() {
        // Intersection corners on the first G-cell of a bucket (0-1), on
        // the last G-cell of one (0-2), and pairs touching in the single
        // G-cell that opens a bucket (1-3, 3-4).
        let s = crate::bucket::BUCKET_SIDE as u16;
        let boxes = [
            rect(0, 0, s + 2, s + 2),
            rect(s, s, 2 * s, 2 * s),
            rect(s - 1, s - 1, s - 1, 3 * s),
            rect(2 * s, 2 * s, 3 * s, 3 * s),
            rect(3 * s, 0, 4 * s, 2 * s),
        ];
        let g = ConflictGraph::from_bounding_boxes(&boxes);
        assert_eq!(g, ConflictGraph::from_bounding_boxes_naive(&boxes));
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.neighbors(3), &[1, 4]);
        assert_eq!(g.neighbors(4), &[3]);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn pair_overlapping_in_many_buckets_is_one_edge() {
        let s = crate::bucket::BUCKET_SIDE as u16;
        let g = ConflictGraph::from_bounding_boxes(&[
            rect(0, 0, 10 * s, 10 * s),
            rect(1, 1, 10 * s + 1, 10 * s + 1),
        ]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    proptest! {
        /// Bucketised construction must agree exactly with the all-pairs
        /// reference for arbitrary boxes, scaled so boxes share buckets or
        /// span many of them.
        #[test]
        fn matches_all_pairs_reference(
            raw in proptest::collection::vec((0u16..50, 0u16..50, 0u16..12, 0u16..12), 0..40),
            scale in 1u16..9
        ) {
            let boxes: Vec<Rect> = raw
                .iter()
                .map(|&(x, y, w, h)| rect(x * scale, y * scale, (x + w) * scale, (y + h) * scale))
                .collect();
            let g = ConflictGraph::from_bounding_boxes(&boxes);
            for i in 0..boxes.len() {
                for j in (i + 1)..boxes.len() {
                    let expect = boxes[i].intersects(&boxes[j]);
                    prop_assert_eq!(
                        g.conflicts(i as u32, j as u32),
                        expect,
                        "pair ({}, {}) expected {}", i, j, expect
                    );
                }
            }
            // The whole structure (adjacency lists, edge count) must equal
            // the all-pairs reference, not just the membership queries.
            prop_assert_eq!(g, ConflictGraph::from_bounding_boxes_naive(&boxes));
        }
    }
}
