//! The uniform bucket grid shared by conflict detection and batch fill.

use std::ops::RangeInclusive;

use fastgr_grid::Rect;

/// Side, in G-cells, of one square bucket. Timed on the largest suite
/// design (s19t9: 22 400 nets on 140 x 140 G-cells, 1.0M conflict edges)
/// on a 2-vCPU x86-64 host, best of three: batch fill took 13 ms at side 4,
/// against 17 ms at 1 and 8, 16 ms at 2 and 28 ms at 16; the conflict
/// graph took 72 ms at 4, against 76-92 ms at 1, 2 and 8 and 127 ms at 16.
pub(crate) const BUCKET_SIDE: usize = 4;

/// A grid of square buckets covering every box of a task set. A box lies
/// in every bucket its G-cells touch.
#[derive(Debug)]
pub(crate) struct BucketGrid {
    cols: usize,
    rows: usize,
}

impl BucketGrid {
    /// The grid covering `boxes`.
    pub(crate) fn covering(boxes: &[Rect]) -> Self {
        let max_x = boxes.iter().map(|b| b.hi.x).max().unwrap_or(0) as usize + 1;
        let max_y = boxes.iter().map(|b| b.hi.y).max().unwrap_or(0) as usize + 1;
        Self {
            cols: max_x.div_ceil(BUCKET_SIDE),
            rows: max_y.div_ceil(BUCKET_SIDE),
        }
    }

    /// Number of buckets.
    pub(crate) fn len(&self) -> usize {
        self.cols * self.rows
    }

    /// Every bucket's `(row, col)`, in index order.
    pub(crate) fn positions(&self) -> impl Iterator<Item = (usize, usize)> {
        let cols = self.cols;
        (0..self.rows).flat_map(move |r| (0..cols).map(move |c| (r, c)))
    }

    /// The column and row of the bucket holding `rect`'s lower-left corner.
    pub(crate) fn first(&self, rect: &Rect) -> (usize, usize) {
        (
            rect.lo.x as usize / BUCKET_SIDE,
            rect.lo.y as usize / BUCKET_SIDE,
        )
    }

    /// The indices of the buckets `rect` touches, as one index range per
    /// bucket row.
    pub(crate) fn rows(&self, rect: &Rect) -> impl Iterator<Item = RangeInclusive<usize>> {
        let (c0, r0) = self.first(rect);
        let (c1, r1) = (
            rect.hi.x as usize / BUCKET_SIDE,
            rect.hi.y as usize / BUCKET_SIDE,
        );
        let cols = self.cols;
        (r0..=r1).map(move |r| r * cols + c0..=r * cols + c1)
    }
}
