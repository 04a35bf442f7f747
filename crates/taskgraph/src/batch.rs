//! Algorithm 1: greedy batch extraction.

use fastgr_grid::Rect;

use crate::bucket::BucketGrid;
use crate::conflict::ConflictGraph;

/// Partitions tasks into conflict-free batches (paper Algorithm 1).
///
/// `order` lists the task ids in the chosen net order (e.g. ascending
/// bounding-box half-perimeter, Section IV-C). The algorithm repeatedly
/// starts a batch with the first remaining task, then scans the remaining
/// tasks in order and pulls in every task that conflicts with nothing
/// already in the batch — a greedy maximal independent set per batch.
///
/// Every task appears in exactly one batch; the first batch is the *root
/// task batch* used by the two-stage scheduler.
///
/// # Panics
///
/// Panics if `order` contains an id out of range of `conflicts`, or lists
/// any task twice.
///
/// # Example
///
/// ```
/// use fastgr_grid::{Point2, Rect};
/// use fastgr_taskgraph::{extract_batches, ConflictGraph};
///
/// // A chain of three mutually overlapping boxes 0-1, 1-2.
/// let boxes = vec![
///     Rect::new(Point2::new(0, 0), Point2::new(4, 4)),
///     Rect::new(Point2::new(3, 3), Point2::new(7, 7)),
///     Rect::new(Point2::new(6, 6), Point2::new(9, 9)),
/// ];
/// let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
/// let batches = extract_batches(&[0, 1, 2], &conflicts);
/// assert_eq!(batches, vec![vec![0, 2], vec![1]]);
/// ```
pub fn extract_batches(order: &[u32], conflicts: &ConflictGraph) -> Vec<Vec<u32>> {
    let n = conflicts.task_count();
    check_order(order, n);
    let mut blocked = vec![u32::MAX; n]; // batch number that blocks the task
    greedy_fill(order, |batch_no, t| {
        if blocked[t as usize] == batch_no {
            return false;
        }
        // Later tasks of this round that conflict with `t` are blocked.
        for &nb in conflicts.neighbors(t) {
            blocked[nb as usize] = batch_no;
        }
        true
    })
}

/// [`extract_batches`] over the boxes themselves, without building any
/// conflict edges: task `i` owns `boxes[i]`, and two tasks conflict when
/// their boxes intersect. The batches equal
/// `extract_batches(order, &ConflictGraph::from_bounding_boxes(boxes))`.
///
/// Each round keeps a bucket index of the boxes already in the batch; a
/// candidate joins when its box intersects none of the members in the
/// buckets it covers.
///
/// # Panics
///
/// Panics if `order` contains an id out of range of `boxes`, or lists any
/// task twice.
///
/// # Example
///
/// ```
/// use fastgr_grid::{Point2, Rect};
/// use fastgr_taskgraph::extract_batches_from_boxes;
///
/// let boxes = vec![
///     Rect::new(Point2::new(0, 0), Point2::new(4, 4)),
///     Rect::new(Point2::new(3, 3), Point2::new(7, 7)),
///     Rect::new(Point2::new(6, 6), Point2::new(9, 9)),
/// ];
/// assert_eq!(
///     extract_batches_from_boxes(&[0, 1, 2], &boxes),
///     vec![vec![0, 2], vec![1]]
/// );
/// ```
pub fn extract_batches_from_boxes(order: &[u32], boxes: &[Rect]) -> Vec<Vec<u32>> {
    check_order(order, boxes.len());
    let grid = BucketGrid::covering(boxes);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); grid.len()];
    let mut touched: Vec<usize> = Vec::new();
    let mut round = 0;
    greedy_fill(order, |batch_no, t| {
        if batch_no != round {
            for cell in touched.drain(..) {
                buckets[cell].clear();
            }
            round = batch_no;
        }
        let rect = &boxes[t as usize];
        let blocked = grid.rows(rect).any(|row| {
            buckets[row]
                .iter()
                .flatten()
                .any(|&m| boxes[m as usize].intersects(rect))
        });
        if blocked {
            return false;
        }
        for cell in grid.rows(rect).flatten() {
            if buckets[cell].is_empty() {
                touched.push(cell);
            }
            buckets[cell].push(t);
        }
        true
    })
}

/// Asserts that `order` lists ids below `n`, none twice.
fn check_order(order: &[u32], n: usize) {
    let mut seen = vec![false; n];
    for &t in order {
        assert!((t as usize) < n, "task id {t} out of range");
        assert!(!seen[t as usize], "task id {t} listed twice");
        seen[t as usize] = true;
    }
}

/// Algorithm 1's round loop: each round scans the remaining tasks in order
/// and offers each to `try_join(batch_no, task)`, which admits it to batch
/// `batch_no` (and returns `true`) when it conflicts with no member so far.
fn greedy_fill(order: &[u32], mut try_join: impl FnMut(u32, u32) -> bool) -> Vec<Vec<u32>> {
    let mut batches: Vec<Vec<u32>> = Vec::new();
    let mut remaining: Vec<u32> = order.to_vec();
    while !remaining.is_empty() {
        let batch_no = batches.len() as u32;
        let mut batch = Vec::new();
        let mut rest = Vec::with_capacity(remaining.len());
        for &t in &remaining {
            if try_join(batch_no, t) {
                batch.push(t);
            } else {
                rest.push(t);
            }
        }
        debug_assert!(!batch.is_empty(), "every round must make progress");
        batches.push(batch);
        remaining = rest;
    }
    batches
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
    fn independent_tasks_form_one_batch() {
        let boxes = vec![rect(0, 0, 1, 1), rect(5, 5, 6, 6), rect(10, 10, 11, 11)];
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let batches = extract_batches(&[0, 1, 2], &conflicts);
        assert_eq!(batches, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn clique_serialises_fully() {
        let boxes = vec![rect(0, 0, 9, 9), rect(1, 1, 8, 8), rect(2, 2, 7, 7)];
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let batches = extract_batches(&[2, 0, 1], &conflicts);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0], vec![2]); // order is respected
    }

    #[test]
    fn order_determines_batch_leaders() {
        let boxes = vec![rect(0, 0, 4, 4), rect(3, 3, 7, 7)];
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        assert_eq!(extract_batches(&[0, 1], &conflicts)[0], vec![0]);
        assert_eq!(extract_batches(&[1, 0], &conflicts)[0], vec![1]);
    }

    #[test]
    fn empty_order_gives_no_batches() {
        let conflicts = ConflictGraph::from_bounding_boxes(&[]);
        assert!(extract_batches(&[], &conflicts).is_empty());
    }

    #[test]
    #[should_panic(expected = "task id 0 listed twice")]
    fn duplicate_ids_panic() {
        let boxes = vec![rect(0, 0, 1, 1)];
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let _ = extract_batches(&[0, 0], &conflicts);
    }

    #[test]
    #[should_panic(expected = "task id 0 listed twice")]
    fn box_fill_duplicate_ids_panic() {
        let _ = extract_batches_from_boxes(&[0, 0], &[rect(0, 0, 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "task id 1 out of range")]
    fn out_of_range_ids_panic() {
        let conflicts = ConflictGraph::from_bounding_boxes(&[rect(0, 0, 1, 1)]);
        let _ = extract_batches(&[0, 1], &conflicts);
    }

    #[test]
    #[should_panic(expected = "task id 1 out of range")]
    fn box_fill_out_of_range_ids_panic() {
        let _ = extract_batches_from_boxes(&[0, 1], &[rect(0, 0, 1, 1)]);
    }

    proptest! {
        /// The edge-free box fill must give exactly Algorithm 1's batches
        /// over the all-pairs conflict graph: point, zero-width and merely
        /// touching boxes, coordinates scaled so boxes span many buckets or
        /// share one, and a shuffled order.
        #[test]
        fn box_fill_matches_graph_fill(
            raw in proptest::collection::vec(
                (0u16..60, 0u16..60, 0u16..14, 0u16..14, 0u32..1000),
                0..48,
            ),
            scale in 1u16..9
        ) {
            let boxes: Vec<Rect> = raw
                .iter()
                .map(|&(x, y, w, h, _)| {
                    rect(x * scale, y * scale, (x + w) * scale, (y + h) * scale)
                })
                .collect();
            let mut order: Vec<u32> = (0..boxes.len() as u32).collect();
            order.sort_by_key(|&t| (raw[t as usize].4, t));
            let conflicts = ConflictGraph::from_bounding_boxes_naive(&boxes);
            prop_assert_eq!(
                extract_batches_from_boxes(&order, &boxes),
                extract_batches(&order, &conflicts)
            );
        }

        #[test]
        fn batches_partition_and_are_conflict_free(
            raw in proptest::collection::vec((0u16..30, 0u16..30, 0u16..8, 0u16..8), 1..30)
        ) {
            let boxes: Vec<Rect> = raw
                .iter()
                .map(|&(x, y, w, h)| rect(x, y, x + w, y + h))
                .collect();
            let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
            let order: Vec<u32> = (0..boxes.len() as u32).collect();
            let batches = extract_batches(&order, &conflicts);

            // Partition: every task exactly once.
            let mut seen = vec![false; boxes.len()];
            for batch in &batches {
                for &t in batch {
                    prop_assert!(!seen[t as usize]);
                    seen[t as usize] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));

            // No conflicts inside a batch.
            for batch in &batches {
                for (i, &a) in batch.iter().enumerate() {
                    for &b in &batch[i + 1..] {
                        prop_assert!(!conflicts.conflicts(a, b));
                    }
                }
            }

            // Maximality of each batch w.r.t. the scan: every task not in
            // batch k conflicts with something in some earlier-or-equal
            // batch... (weaker check: batch count is bounded by max degree + 1)
            let max_deg = (0..boxes.len() as u32)
                .map(|t| conflicts.neighbors(t).len())
                .max()
                .unwrap_or(0);
            prop_assert!(batches.len() <= max_deg + 1);
        }
    }
}
