//! The windowed multi-terminal 3-D shortest-path router.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

use fastgr_grid::{CostParams, Direction, GridGraph, Point2, Point3, Rect, Route, Segment, Via};

/// Fixed-point cost resolution: 1 µ-cost units keep the priority queue on
/// plain integers (no NaN hazards, total order for free).
const COST_SCALE: f64 = 1e6;

/// Memoised cost of an edge the search may not use (a zero-capacity wire
/// edge).
const BLOCKED: u64 = u64::MAX;

fn to_fixed(c: f64) -> u64 {
    debug_assert!(c >= 0.0 && c.is_finite());
    (c * COST_SCALE).round() as u64
}

/// The A* potential towards one target pin `(target, layer 0)`:
///
/// ```text
/// h(p) = manhattan(p, target) * fixed(unit_wire) + hops(p) * fixed(unit_via)
/// hops(p) = p.layer                 if p.layer > 0
///         = 2                       if p.layer = 0 and p is off the target
///         = 0                       at the target
/// ```
///
/// A vertex on layer `l` needs at least `l` via hops down to the target's
/// layer 0, and layer 0 carries no wire edges, so a layer-0 vertex off the
/// target must go up and come back down. The potential is *consistent*
/// (`h(p) <= c(p, q) + h(q)` for every edge, hence also admissible): a wire
/// edge changes the Manhattan term by at most one `fixed(unit_wire)` and
/// costs at least that; a via edge leaves the Manhattan term alone, changes
/// `hops` by at most one and costs at least `fixed(unit_via)`. Both cost
/// floors rest on [`CostParams`] having non-negative `overflow_weight` and
/// `via_overflow_weight` and on non-negative history costs, so that every
/// edge cost is its unit cost plus a non-negative penalty (and `to_fixed`
/// rounds monotonically). With plain Dijkstra both unit terms are zero and
/// `h = 0`.
#[derive(Debug, Clone, Copy)]
struct Heuristic {
    target: Point2,
    wire: u64,
    via: u64,
}

impl Heuristic {
    fn new(astar: bool, params: &CostParams, target: Point2) -> Self {
        let (wire, via) = if astar {
            (to_fixed(params.unit_wire), to_fixed(params.unit_via))
        } else {
            (0, 0)
        };
        Self { target, wire, via }
    }

    fn at(&self, p: Point3) -> u64 {
        let manhattan = u64::from(p.xy().manhattan_distance(self.target));
        let hops = match p.layer {
            0 if manhattan == 0 => 0,
            0 => 2,
            l => u64::from(l),
        };
        manhattan * self.wire + hops * self.via
    }
}

/// Configuration of the maze router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MazeConfig {
    /// G-cells added around the pin bounding box to form the search window.
    pub window_margin: u16,
    /// Goal-directed A* search (plain Dijkstra when `false`). The potential
    /// is the Manhattan distance to the target pin at `unit_wire` per
    /// G-cell plus the via hops any path still needs at `unit_via` each:
    /// `l` hops from layer `l`, two from a layer-0 vertex off the target.
    /// It is consistent as long as the overflow weights of the grid's
    /// [`CostParams`] and its history costs are non-negative, so A* routes
    /// cost exactly as much as Dijkstra routes; they may differ only where
    /// two paths tie.
    pub astar: bool,
}

impl Default for MazeConfig {
    fn default() -> Self {
        Self {
            window_margin: 3,
            astar: true,
        }
    }
}

/// Errors from maze routing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MazeError {
    /// A pin lies outside the grid.
    PinOutsideGrid {
        /// The offending pin position.
        pin: Point2,
    },
    /// A net has no pins.
    EmptyNet,
    /// No path exists inside the search window (e.g. fully blocked layers).
    NoPath {
        /// The pin that could not be reached.
        target: Point2,
    },
}

impl fmt::Display for MazeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MazeError::PinOutsideGrid { pin } => write!(f, "pin {pin} is outside the grid"),
            MazeError::EmptyNet => write!(f, "cannot route a net without pins"),
            MazeError::NoPath { target } => {
                write!(f, "no path to pin {target} inside the search window")
            }
        }
    }
}

impl Error for MazeError {}

/// Search statistics of one routing call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MazeStats {
    /// Vertices popped from the priority queue and expanded (the target
    /// pops and stale entries excluded).
    pub expanded: u64,
    /// Stale queue entries popped and skipped: a vertex is queued again
    /// whenever its distance improves, and the older entries it leaves
    /// behind can never improve anything. `expanded + stale_skipped` is
    /// what `expanded` counted before stale entries were skipped.
    pub stale_skipped: u64,
    /// Entries pushed onto the priority queue, the search sources included.
    pub pushes: u64,
    /// Number of two-pin searches performed.
    pub searches: u32,
}

/// The windowed multi-terminal 3-D maze router. See the crate docs.
#[derive(Debug, Clone, Default)]
pub struct MazeRouter {
    config: MazeConfig,
}

/// Per-search state of one window vertex.
#[derive(Debug, Clone, Copy, Default)]
struct Vertex {
    dist: u64,
    /// Back-pointer: packed predecessor index + 1, 0 = none/source.
    prev: u32,
    /// Search generation that wrote `dist`/`prev`; older values are unset.
    gen: u32,
}

/// Fixed-point costs of the two edges owned by one window vertex, read
/// from the grid at most once per routing call.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeMemo {
    /// The wire edge towards `+x`/`+y` along the layer's preferred
    /// direction ([`BLOCKED`] at zero capacity).
    wire: u64,
    /// The via edge one layer up.
    via: u64,
    /// Routing call that read `wire` / `via`; older values are unset.
    wire_call: u32,
    via_call: u32,
}

/// Reusable search state for [`MazeRouter::route_into`].
///
/// Owns the dense per-window arrays (per-vertex distance, back-pointer and
/// generation stamp, plus the edge-cost memo), the priority queue, and
/// every intermediate buffer a routing call needs. All buffers grow to a
/// high-water mark and are recycled via generation stamping, so after a
/// warm-up call the steady-state search loop performs **zero heap
/// allocation** — keep one scratch per worker thread and route every net
/// through it, mirroring the pattern stage's `DpScratch` discipline.
#[derive(Debug)]
pub struct MazeScratch {
    /// Current search window (set by `bind`, valid for one routing call).
    rect: Rect,
    w: usize,
    /// Vertices per layer of the window.
    plane: usize,
    vertices: Vec<Vertex>,
    current_gen: u32,
    /// Edge costs read so far in the current routing call, indexed like
    /// `vertices`. A multi-pin net searches the same window once per pin
    /// and relaxes each edge from both ends, but every edge's congestion
    /// cost is computed once per call.
    memo: Vec<EdgeMemo>,
    current_call: u32,
    /// Priority queue of (f = g + h, index).
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Back-traced vertex path of the most recent two-pin search.
    path: Vec<usize>,
    /// Window indices of the connected component grown so far.
    component: Vec<usize>,
    /// Pins not yet connected to the component.
    remaining: Vec<Point2>,
    /// Deduplicated, sorted copy of the caller's pins.
    distinct: Vec<Point2>,
}

impl Default for MazeScratch {
    fn default() -> Self {
        Self {
            rect: Rect::new(Point2::new(0, 0), Point2::new(0, 0)),
            w: 0,
            plane: 0,
            vertices: Vec::new(),
            current_gen: 0,
            memo: Vec::new(),
            current_call: 0,
            heap: BinaryHeap::new(),
            path: Vec::new(),
            component: Vec::new(),
            remaining: Vec::new(),
            distinct: Vec::new(),
        }
    }
}

impl MazeScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebinds the scratch to a new search window for one routing call,
    /// growing the dense arrays to the high-water mark (never shrinking)
    /// and invalidating every memoised edge cost.
    fn bind(&mut self, rect: Rect, layers: usize) {
        self.rect = rect;
        self.w = rect.width() as usize;
        self.plane = self.w * rect.height() as usize;
        let n = self.plane * layers;
        if n > self.vertices.len() {
            self.vertices.resize(n, Vertex::default());
            self.memo.resize(n, EdgeMemo::default());
        }
        if self.current_call == u32::MAX {
            // Call counter wrapped: reset the stamps once.
            for m in &mut self.memo {
                m.wire_call = 0;
                m.via_call = 0;
            }
            self.current_call = 0;
        }
        self.current_call += 1;
    }

    fn index(&self, p: Point3) -> usize {
        let x = (p.x - self.rect.lo.x) as usize;
        let y = (p.y - self.rect.lo.y) as usize;
        p.layer as usize * self.plane + y * self.w + x
    }

    fn point(&self, idx: usize) -> Point3 {
        let layer = idx / self.plane;
        let rem = idx % self.plane;
        let y = rem / self.w;
        let x = rem % self.w;
        Point3::new(
            self.rect.lo.x + x as u16,
            self.rect.lo.y + y as u16,
            layer as u8,
        )
    }

    fn next_generation(&mut self) {
        if self.current_gen == u32::MAX {
            // Generation counter wrapped: reset the stamps once rather than
            // clearing `dist` on every search.
            for v in &mut self.vertices {
                v.gen = 0;
            }
            self.current_gen = 0;
        }
        self.current_gen += 1;
    }

    fn dist_at(&self, idx: usize) -> u64 {
        let v = &self.vertices[idx];
        if v.gen == self.current_gen {
            v.dist
        } else {
            u64::MAX
        }
    }

    fn set(&mut self, idx: usize, dist: u64, prev: Option<usize>) {
        self.vertices[idx] = Vertex {
            dist,
            prev: prev.map_or(0, |p| p as u32 + 1),
            gen: self.current_gen,
        };
    }

    fn prev_at(&self, idx: usize) -> Option<usize> {
        let v = &self.vertices[idx];
        if v.gen == self.current_gen && v.prev != 0 {
            Some(v.prev as usize - 1)
        } else {
            None
        }
    }

    /// Fixed-point cost of the wire edge leaving vertex `idx` (at `p`)
    /// towards `+x`/`+y`, [`BLOCKED`] at zero capacity; read from the
    /// grid on the first use in this routing call.
    fn wire_cost(&mut self, graph: &GridGraph, idx: usize, p: Point3) -> u64 {
        let call = self.current_call;
        let m = &mut self.memo[idx];
        if m.wire_call != call {
            m.wire_call = call;
            m.wire = if graph.wire_capacity(p.layer, p.xy()).unwrap_or(0.0) > 0.0 {
                to_fixed(graph.wire_edge_cost(p.layer, p.xy()))
            } else {
                BLOCKED
            };
        }
        m.wire
    }

    /// Fixed-point cost of the via edge from vertex `idx` (at `p`) one
    /// layer up; read from the grid on the first use in this routing call.
    fn via_cost(&mut self, graph: &GridGraph, idx: usize, p: Point3) -> u64 {
        let call = self.current_call;
        let m = &mut self.memo[idx];
        if m.via_call != call {
            m.via_call = call;
            m.via = to_fixed(graph.via_edge_cost(p.layer, p.xy()));
        }
        m.via
    }

    /// Relaxes the edge `from -> to` (vertex `to` at `q`) of fixed-point
    /// cost `cost`, where `g` is the distance of `from`.
    fn relax(&mut self, from: usize, g: u64, to: usize, q: Point3, cost: u64, h: &Heuristic) {
        if cost == BLOCKED {
            return;
        }
        let ng = g + cost;
        if ng < self.dist_at(to) {
            self.set(to, ng, Some(from));
            self.heap.push(Reverse((ng + h.at(q), to)));
        }
    }
}

impl MazeRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: MazeConfig) -> Self {
        Self { config }
    }

    /// The router configuration.
    pub fn config(&self) -> &MazeConfig {
        &self.config
    }

    /// Routes a net given its distinct pin G-cells (all pins are assumed to
    /// be on layer 0, the convention of this reproduction's designs).
    ///
    /// Returns a connected [`Route`]; a single-pin net yields an empty one.
    ///
    /// # Errors
    ///
    /// * [`MazeError::EmptyNet`] for zero pins;
    /// * [`MazeError::PinOutsideGrid`] for an out-of-grid pin;
    /// * [`MazeError::NoPath`] when a pin cannot be reached inside the
    ///   window (retry with a larger [`MazeConfig::window_margin`]).
    pub fn route(&self, graph: &GridGraph, pins: &[Point2]) -> Result<Route, MazeError> {
        self.route_with_stats(graph, pins).map(|(route, _)| route)
    }

    /// Like [`MazeRouter::route`] but also returns search statistics.
    ///
    /// Allocating convenience wrapper around [`MazeRouter::route_into`];
    /// hot loops should hold a [`MazeScratch`] and call `route_into`
    /// directly.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MazeRouter::route`].
    pub fn route_with_stats(
        &self,
        graph: &GridGraph,
        pins: &[Point2],
    ) -> Result<(Route, MazeStats), MazeError> {
        let mut scratch = MazeScratch::new();
        let mut route = Route::new();
        let stats = self.route_into(graph, pins, &mut scratch, &mut route)?;
        debug_assert!(route.is_connected(), "maze route must be connected");
        Ok((route, stats))
    }

    /// Routes a net into a caller-provided [`Route`], reusing `scratch`.
    ///
    /// `out` is cleared first and holds the normalized result on success
    /// (its contents are unspecified on error). After a warm-up call that
    /// grows the scratch to its high-water mark, this performs no heap
    /// allocation — the property the counting-allocator test and the
    /// `*_into` zero-alloc lint rule enforce.
    ///
    /// Each window edge's cost is read from `graph` once per call and
    /// reused by every search of the call, so all of a net's searches see
    /// one congestion state per edge even while other threads commit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MazeRouter::route`].
    pub fn route_into(
        &self,
        graph: &GridGraph,
        pins: &[Point2],
        scratch: &mut MazeScratch,
        out: &mut Route,
    ) -> Result<MazeStats, MazeError> {
        out.clear();
        if pins.is_empty() {
            return Err(MazeError::EmptyNet);
        }
        for &pin in pins {
            if !graph.contains(pin) {
                return Err(MazeError::PinOutsideGrid { pin });
            }
        }
        scratch.distinct.clear();
        scratch.distinct.extend_from_slice(pins);
        scratch.distinct.sort_unstable();
        scratch.distinct.dedup();

        let mut stats = MazeStats::default();
        if scratch.distinct.len() == 1 {
            return Ok(stats);
        }

        let bbox = Rect::bounding(scratch.distinct.iter().copied()).expect("non-empty");
        let window_rect = bbox.inflated(self.config.window_margin, graph.width(), graph.height());
        scratch.bind(window_rect, graph.num_layers() as usize);

        // Component vertices (indices into the window), starting from the
        // first pin on layer 0.
        let anchor = scratch.distinct[0];
        let first = scratch.index(anchor.on_layer(0));
        scratch.component.clear();
        scratch.component.push(first);

        // Connect remaining pins, nearest-first to keep paths short.
        {
            let (remaining, distinct) = (&mut scratch.remaining, &scratch.distinct);
            remaining.clear();
            remaining.extend_from_slice(&distinct[1..]);
        }
        while !scratch.remaining.is_empty() {
            // Pick the unconnected pin closest to the first pin (a cheap
            // proxy for the closest to the component grown so far).
            let (pick, _) = scratch
                .remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| p.manhattan_distance(anchor))
                .expect("non-empty");
            let target = scratch.remaining.swap_remove(pick);
            self.search_into(graph, scratch, target, &mut stats)?;
            // Merge path vertices into the component and geometry. The
            // path starts at a component vertex, which is not added twice.
            Self::emit_geometry(scratch, out);
            let (component, path) = (&mut scratch.component, &scratch.path);
            component.extend_from_slice(&path[1..]);
        }
        out.normalize();
        Ok(stats)
    }

    /// Multi-source Dijkstra/A* from `scratch.component` to `(target,
    /// layer 0)`. Leaves the path, as window indices from source side to
    /// target, in `scratch.path`.
    fn search_into(
        &self,
        graph: &GridGraph,
        scratch: &mut MazeScratch,
        target: Point2,
        stats: &mut MazeStats,
    ) -> Result<(), MazeError> {
        stats.searches += 1;
        scratch.next_generation();
        let target_idx = scratch.index(target.on_layer(0));
        let heuristic = Heuristic::new(self.config.astar, graph.params(), target);

        scratch.heap.clear();
        for i in 0..scratch.component.len() {
            let s = scratch.component[i];
            scratch.set(s, 0, None);
            let h = heuristic.at(scratch.point(s));
            scratch.heap.push(Reverse((h, s)));
        }

        let (lo, hi) = (scratch.rect.lo, scratch.rect.hi);
        let (w, plane) = (scratch.w, scratch.plane);
        let top = graph.num_layers() - 1;
        // Every push is popped or left in the heap, so pushes are counted
        // as pops plus what remains when the search ends.
        let mut pops = 0u64;
        let result = loop {
            let Some(Reverse((key, idx))) = scratch.heap.pop() else {
                break Err(MazeError::NoPath { target });
            };
            pops += 1;
            // Every queued vertex was stamped in this generation.
            let g = scratch.vertices[idx].dist;
            let p = scratch.point(idx);
            // A queued key is `dist + h` at push time; the vertex's live
            // entry keys its current distance, and every entry above it is
            // stale. Under a consistent potential a stale entry's vertex
            // has already been expanded at its final distance, so
            // expanding it again could improve nothing.
            if key > g + heuristic.at(p) {
                stats.stale_skipped += 1;
                continue;
            }
            if idx == target_idx {
                // Back-trace.
                scratch.path.clear();
                scratch.path.push(idx);
                let mut cur = idx;
                while let Some(prev) = scratch.prev_at(cur) {
                    scratch.path.push(prev);
                    cur = prev;
                }
                scratch.path.reverse();
                break Ok(());
            }
            stats.expanded += 1;

            // Wire moves along the preferred direction (layers with
            // capacity; layer 0 carries none).
            let layer = p.layer;
            if layer >= 1 {
                match graph.layer(layer).direction {
                    Direction::Horizontal => {
                        if p.x > lo.x {
                            let q = Point3::new(p.x - 1, p.y, layer);
                            let cost = scratch.wire_cost(graph, idx - 1, q);
                            scratch.relax(idx, g, idx - 1, q, cost, &heuristic);
                        }
                        if p.x < hi.x {
                            let q = Point3::new(p.x + 1, p.y, layer);
                            let cost = scratch.wire_cost(graph, idx, p);
                            scratch.relax(idx, g, idx + 1, q, cost, &heuristic);
                        }
                    }
                    Direction::Vertical => {
                        if p.y > lo.y {
                            let q = Point3::new(p.x, p.y - 1, layer);
                            let cost = scratch.wire_cost(graph, idx - w, q);
                            scratch.relax(idx, g, idx - w, q, cost, &heuristic);
                        }
                        if p.y < hi.y {
                            let q = Point3::new(p.x, p.y + 1, layer);
                            let cost = scratch.wire_cost(graph, idx, p);
                            scratch.relax(idx, g, idx + w, q, cost, &heuristic);
                        }
                    }
                }
            }
            // Via moves.
            if layer < top {
                let q = Point3::new(p.x, p.y, layer + 1);
                let cost = scratch.via_cost(graph, idx, p);
                scratch.relax(idx, g, idx + plane, q, cost, &heuristic);
            }
            if layer > 0 {
                let q = Point3::new(p.x, p.y, layer - 1);
                let cost = scratch.via_cost(graph, idx - plane, q);
                scratch.relax(idx, g, idx - plane, q, cost, &heuristic);
            }
        };
        stats.pushes += pops + scratch.heap.len() as u64;
        result
    }

    /// Converts the back-traced vertex path in `scratch.path` into merged
    /// segments and vias appended to `route`.
    fn emit_geometry(scratch: &MazeScratch, route: &mut Route) {
        let path = &scratch.path;
        if path.len() < 2 {
            return;
        }
        let mut run_start = scratch.point(path[0]);
        // Run-length merge: walk the path, cutting whenever the move kind
        // (wire vs via) changes. Same-layer wire runs are always straight
        // because shortest paths never revisit a vertex.
        let mut i = 1;
        while i < path.len() {
            let dir = step_dir(scratch.point(path[i - 1]), scratch.point(path[i]));
            let mut j = i;
            while j + 1 < path.len() && step_dir(scratch.point(path[j]), scratch.point(path[j + 1])) == dir
            {
                j += 1;
            }
            let (from, to) = (run_start, scratch.point(path[j]));
            match dir {
                StepDir::Wire => {
                    route.push_segment(Segment::new(from.layer, from.xy(), to.xy()));
                }
                StepDir::Via => {
                    route.push_via(Via::new(from.xy(), from.layer, to.layer));
                }
            }
            run_start = scratch.point(path[j]);
            i = j + 1;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepDir {
    Wire,
    Via,
}

fn step_dir(a: Point3, b: Point3) -> StepDir {
    if a.layer != b.layer {
        StepDir::Via
    } else {
        StepDir::Wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_grid::CostParams;
    use proptest::prelude::*;

    fn graph(w: u16, h: u16, layers: u8) -> GridGraph {
        let mut g = GridGraph::new(w, h, layers, CostParams::default()).expect("valid");
        g.fill_capacity(4.0);
        g
    }

    /// Fixed-point cost of the edge between adjacent vertices `a` and
    /// `b`, read straight from the grid.
    fn edge_cost_fixed(g: &GridGraph, a: Point3, b: Point3) -> u64 {
        if a.layer == b.layer {
            to_fixed(g.wire_edge_cost(a.layer, a.xy().min(b.xy())))
        } else {
            to_fixed(g.via_edge_cost(a.layer.min(b.layer), a.xy()))
        }
    }

    /// A route's cost in the maze's fixed-point units: the sum of its unit
    /// edges' costs.
    fn route_cost_fixed(g: &GridGraph, route: &Route) -> u64 {
        let mut total = 0;
        for s in route.segments() {
            for i in 0..s.length() as u16 {
                let p = if s.is_horizontal() {
                    Point2::new(s.from.x + i, s.from.y)
                } else {
                    Point2::new(s.from.x, s.from.y + i)
                };
                total += to_fixed(g.wire_edge_cost(s.layer, p));
            }
        }
        for v in route.vias() {
            for l in v.lo..v.hi {
                total += to_fixed(g.via_edge_cost(l, v.at));
            }
        }
        total
    }

    /// Fixed-point cost of the path the last search left in `scratch`,
    /// which must use no zero-capacity wire edge.
    fn path_cost_fixed(g: &GridGraph, scratch: &MazeScratch) -> u64 {
        let mut total = 0;
        for e in scratch.path.windows(2) {
            let (a, b) = (scratch.point(e[0]), scratch.point(e[1]));
            if a.layer == b.layer {
                let cap = g.wire_capacity(a.layer, a.xy().min(b.xy()));
                assert!(
                    cap.unwrap_or(0.0) > 0.0,
                    "path uses blocked edge {a:?} -> {b:?}"
                );
            }
            total += edge_cost_fixed(g, a, b);
        }
        total
    }

    /// A congested random grid: small capacities, random committed wires,
    /// zero-capacity regions and history on the edges left overflowing.
    fn random_grid(
        layers: u8,
        capacity: f64,
        wires: &[(u8, u16, u16, u16)],
        blocked: &[(u8, u16, u16)],
        history: f64,
    ) -> GridGraph {
        const SIDE: u16 = 14;
        let mut g = GridGraph::new(SIDE, SIDE, layers, CostParams::default()).expect("valid");
        g.fill_capacity(capacity);
        for &(l, x, y) in blocked {
            let l = 1 + l % (layers - 1);
            let lo = Point2::new(x % SIDE, y % SIDE);
            let hi = Point2::new((lo.x + 2).min(SIDE - 1), (lo.y + 2).min(SIDE - 1));
            g.scale_region_capacity(l, Rect::new(lo, hi), 0.0);
        }
        let mut route = Route::new();
        for &(l, x, y, len) in wires {
            let l = 1 + l % (layers - 1);
            let a = Point2::new(x % SIDE, y % SIDE);
            let b = match g.layer(l).direction {
                Direction::Horizontal => Point2::new((a.x + len).min(SIDE - 1), a.y),
                Direction::Vertical => Point2::new(a.x, (a.y + len).min(SIDE - 1)),
            };
            route.push_segment(Segment::new(l, a, b));
        }
        g.commit(&route).expect("valid");
        if history > 0.0 {
            g.add_history_on_overflow(history);
        }
        g
    }

    #[test]
    fn two_pin_route_is_connected_and_tight() {
        let g = graph(16, 16, 4);
        let r = MazeRouter::default()
            .route(&g, &[Point2::new(1, 1), Point2::new(12, 9)])
            .expect("routable");
        assert!(r.is_connected());
        // Shortest possible wirelength is the Manhattan distance.
        assert_eq!(r.wirelength(), 19);
        // Needs vias: from layer 0 up and between H/V layers.
        assert!(r.via_count() >= 2);
    }

    #[test]
    fn single_pin_net_routes_empty() {
        let g = graph(8, 8, 4);
        let r = MazeRouter::default()
            .route(&g, &[Point2::new(3, 3)])
            .expect("ok");
        assert!(r.is_empty());
    }

    #[test]
    fn duplicate_pins_collapse() {
        let g = graph(8, 8, 4);
        let r = MazeRouter::default()
            .route(&g, &[Point2::new(3, 3), Point2::new(3, 3)])
            .expect("ok");
        assert!(r.is_empty());
    }

    #[test]
    fn empty_net_is_rejected() {
        let g = graph(8, 8, 4);
        assert_eq!(
            MazeRouter::default().route(&g, &[]),
            Err(MazeError::EmptyNet)
        );
    }

    #[test]
    fn out_of_grid_pin_is_rejected() {
        let g = graph(8, 8, 4);
        assert!(matches!(
            MazeRouter::default().route(&g, &[Point2::new(0, 0), Point2::new(99, 0)]),
            Err(MazeError::PinOutsideGrid { .. })
        ));
    }

    #[test]
    fn reused_scratch_reproduces_fresh_results() {
        let g = graph(20, 20, 5);
        let router = MazeRouter::default();
        let nets: Vec<Vec<Point2>> = vec![
            vec![Point2::new(1, 1), Point2::new(12, 9)],
            vec![Point2::new(18, 2), Point2::new(3, 17), Point2::new(9, 9)],
            vec![Point2::new(0, 19), Point2::new(19, 0)],
            vec![Point2::new(5, 5)],
        ];
        let mut scratch = MazeScratch::new();
        let mut out = Route::new();
        for pins in &nets {
            let fresh = router.route(&g, pins).expect("routable");
            let stats = router
                .route_into(&g, pins, &mut scratch, &mut out)
                .expect("routable");
            assert_eq!(&out, &fresh, "scratch reuse changed geometry");
            assert!(stats.searches as usize + 1 >= pins.len());
        }
    }

    #[test]
    fn route_into_reports_errors_with_reused_scratch() {
        let g = graph(8, 8, 4);
        let mut scratch = MazeScratch::new();
        let mut out = Route::new();
        let router = MazeRouter::default();
        // Warm up with a good net, then fail, then route again.
        router
            .route_into(&g, &[Point2::new(0, 0), Point2::new(7, 7)], &mut scratch, &mut out)
            .expect("routable");
        assert_eq!(
            router.route_into(&g, &[], &mut scratch, &mut out),
            Err(MazeError::EmptyNet)
        );
        router
            .route_into(&g, &[Point2::new(2, 2), Point2::new(5, 1)], &mut scratch, &mut out)
            .expect("routable after error");
        assert!(out.is_connected());
    }

    #[test]
    fn detours_around_congestion() {
        let mut g = graph(16, 16, 4);
        // Saturate the straight horizontal corridor on M1 at y=5.
        let mut blocker = Route::new();
        blocker.push_segment(Segment::new(1, Point2::new(0, 5), Point2::new(15, 5)));
        for _ in 0..8 {
            g.commit(&blocker).expect("valid");
        }
        let r = MazeRouter::default()
            .route(&g, &[Point2::new(2, 5), Point2::new(13, 5)])
            .expect("routable");
        assert!(r.is_connected());
        // With M3 (horizontal) available, the route should escape the
        // saturated M1 corridor rather than add overflow there.
        let m1_wl: u64 = r
            .segments()
            .iter()
            .filter(|s| s.layer == 1 && s.from.y == 5)
            .map(|s| s.length() as u64)
            .sum();
        assert!(
            m1_wl < 11,
            "expected detour off the congested corridor, m1 wl {m1_wl}"
        );
    }

    #[test]
    fn memoised_costs_do_not_outlive_a_routing_call() {
        // Congest the first route's edges between two calls through one
        // scratch: the second call must see the new costs, exactly as a
        // fresh scratch does.
        let mut g = graph(16, 16, 4);
        let pins = [Point2::new(2, 5), Point2::new(13, 9)];
        let router = MazeRouter::default();
        let mut scratch = MazeScratch::new();
        let mut out = Route::new();
        router
            .route_into(&g, &pins, &mut scratch, &mut out)
            .expect("routable");
        let first = out.clone();
        for _ in 0..8 {
            g.commit(&first).expect("valid");
        }
        router
            .route_into(&g, &pins, &mut scratch, &mut out)
            .expect("routable");
        let fresh = router.route(&g, &pins).expect("routable");
        assert_eq!(out, fresh);
        assert_ne!(out, first, "the congested route should be avoided");
    }

    #[test]
    fn multi_pin_route_spans_all_pins() {
        let g = graph(20, 20, 5);
        let pins = [
            Point2::new(2, 2),
            Point2::new(17, 3),
            Point2::new(9, 16),
            Point2::new(4, 12),
        ];
        let r = MazeRouter::default().route(&g, &pins).expect("routable");
        assert!(r.is_connected());
        let touched = r.touched_points();
        for pin in pins {
            assert!(
                touched.contains(&pin.on_layer(0)),
                "pin {pin} not reached by the route"
            );
        }
    }

    #[test]
    fn astar_and_dijkstra_agree_on_cost() {
        let g = graph(24, 24, 4);
        let pins = [Point2::new(1, 2), Point2::new(20, 19)];
        let a = MazeRouter::new(MazeConfig {
            astar: true,
            ..MazeConfig::default()
        })
        .route(&g, &pins)
        .expect("ok");
        let d = MazeRouter::new(MazeConfig {
            astar: false,
            ..MazeConfig::default()
        })
        .route(&g, &pins)
        .expect("ok");
        assert_eq!(route_cost_fixed(&g, &a), route_cost_fixed(&g, &d));
    }

    #[test]
    fn astar_expands_fewer_nodes() {
        let g = graph(32, 32, 4);
        let pins = [Point2::new(1, 1), Point2::new(30, 30)];
        let (_, sa) = MazeRouter::new(MazeConfig {
            astar: true,
            window_margin: 16,
        })
        .route_with_stats(&g, &pins)
        .expect("ok");
        let (_, sd) = MazeRouter::new(MazeConfig {
            astar: false,
            window_margin: 16,
        })
        .route_with_stats(&g, &pins)
        .expect("ok");
        assert!(
            sa.expanded < sd.expanded,
            "a* {} vs dijkstra {}",
            sa.expanded,
            sd.expanded
        );
    }

    #[test]
    fn fully_blocked_layer_reports_no_path() {
        let mut g = GridGraph::new(8, 8, 3, CostParams::default()).expect("valid");
        // Only M1 (horizontal) has capacity; M2 stays at 0 so vertical
        // movement is impossible.
        g.set_layer_capacity(1, 4.0);
        let res = MazeRouter::default().route(&g, &[Point2::new(0, 0), Point2::new(0, 7)]);
        assert!(matches!(res, Err(MazeError::NoPath { .. })));
    }

    proptest! {
        #[test]
        fn random_two_pin_routes_connect(
            ax in 0u16..20, ay in 0u16..20, bx in 0u16..20, by in 0u16..20
        ) {
            let g = graph(20, 20, 5);
            let r = MazeRouter::default()
                .route(&g, &[Point2::new(ax, ay), Point2::new(bx, by)])
                .expect("routable");
            prop_assert!(r.is_connected());
            let manhattan =
                Point2::new(ax, ay).manhattan_distance(Point2::new(bx, by)) as u64;
            prop_assert!(r.wirelength() >= manhattan);
            if (ax, ay) != (bx, by) {
                let touched = r.touched_points();
                prop_assert!(touched.contains(&Point2::new(ax, ay).on_layer(0)));
                prop_assert!(touched.contains(&Point2::new(bx, by).on_layer(0)));
            }
        }

        /// Routing through a reused scratch is geometry-identical to a
        /// fresh router call, for any pin set.
        #[test]
        fn scratch_reuse_is_transparent(
            pins in proptest::collection::vec((0u16..20, 0u16..20), 1..6)
        ) {
            let g = graph(20, 20, 5);
            let pins: Vec<Point2> = pins.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
            let router = MazeRouter::default();
            let mut scratch = MazeScratch::new();
            let mut out = Route::new();
            // Warm the scratch on an unrelated net first.
            router
                .route_into(&g, &[Point2::new(0, 0), Point2::new(19, 19)], &mut scratch, &mut out)
                .expect("routable");
            let fresh = router.route(&g, &pins).expect("routable");
            router.route_into(&g, &pins, &mut scratch, &mut out).expect("routable");
            prop_assert_eq!(&out, &fresh);
        }
        /// Every search of a multi-pin net finds a path exactly as cheap
        /// as plain Dijkstra's from the same component, in fixed-point
        /// units read edge by edge from the grid, on congested grids with
        /// blocked edges and history. The component grows along the A*
        /// paths, so ties cannot make later searches start apart.
        #[test]
        fn astar_search_costs_equal_dijkstra(
            layers in 3u8..6,
            capacity in 1u8..4,
            wires in proptest::collection::vec((0u8..8, 0u16..14, 0u16..14, 1u16..10), 0..40),
            blocked in proptest::collection::vec((0u8..8, 0u16..14, 0u16..14), 0..4),
            history in 0u8..40,
            pins in proptest::collection::vec((0u16..14, 0u16..14), 2..6),
        ) {
            let g = random_grid(layers, f64::from(capacity), &wires, &blocked, f64::from(history) * 0.5);
            // Distinct pins in drawn order, so that targets lie on every
            // side of the growing component.
            let mut distinct: Vec<Point2> = Vec::new();
            for (x, y) in pins {
                if !distinct.contains(&Point2::new(x, y)) {
                    distinct.push(Point2::new(x, y));
                }
            }
            let pins = distinct;
            if pins.len() < 2 {
                return Ok(());
            }
            let astar = MazeRouter::new(MazeConfig { astar: true, window_margin: 3 });
            let dijkstra = MazeRouter::new(MazeConfig { astar: false, window_margin: 3 });
            let window = Rect::bounding(pins.iter().copied())
                .expect("non-empty")
                .inflated(3, g.width(), g.height());
            let (mut sa, mut sd) = (MazeScratch::new(), MazeScratch::new());
            sa.bind(window, layers as usize);
            sd.bind(window, layers as usize);
            sa.component.push(sa.index(pins[0].on_layer(0)));
            let mut stats = MazeStats::default();
            for &target in &pins[1..] {
                sd.component.clone_from(&sa.component);
                let a = astar.search_into(&g, &mut sa, target, &mut stats);
                let d = dijkstra.search_into(&g, &mut sd, target, &mut stats);
                prop_assert_eq!(&a, &d);
                if a.is_err() {
                    break;
                }
                let cost = path_cost_fixed(&g, &sa);
                prop_assert_eq!(cost, path_cost_fixed(&g, &sd));
                // The searched distance is the path's cost read afresh
                // from the grid.
                let t = sa.index(target.on_layer(0));
                prop_assert_eq!(sa.dist_at(t), cost);
                prop_assert_eq!(sd.dist_at(t), cost);
                sa.component.extend_from_slice(&sa.path[1..]);
            }
        }

        /// The potential is consistent on every edge of a congested grid
        /// with blocked edges and history: `h(p) <= c(p, q) + h(q)` in both
        /// directions, for any target.
        #[test]
        fn heuristic_is_consistent_on_every_edge(
            layers in 2u8..6,
            capacity in 1u8..4,
            wires in proptest::collection::vec((0u8..8, 0u16..14, 0u16..14, 1u16..10), 0..40),
            blocked in proptest::collection::vec((0u8..8, 0u16..14, 0u16..14), 0..4),
            history in 0u8..40,
            tx in 0u16..14,
            ty in 0u16..14,
        ) {
            let g = random_grid(layers, f64::from(capacity), &wires, &blocked, f64::from(history) * 0.5);
            let h = Heuristic::new(true, g.params(), Point2::new(tx, ty));
            for l in 0..layers {
                for y in 0..g.height() {
                    for x in 0..g.width() {
                        let p = Point3::new(x, y, l);
                        let mut next = Vec::new();
                        if l + 1 < layers {
                            next.push(Point3::new(x, y, l + 1));
                        }
                        if l > 0 {
                            match g.layer(l).direction {
                                Direction::Horizontal if x + 1 < g.width() => {
                                    next.push(Point3::new(x + 1, y, l));
                                }
                                Direction::Vertical if y + 1 < g.height() => {
                                    next.push(Point3::new(x, y + 1, l));
                                }
                                _ => {}
                            }
                        }
                        for q in next {
                            let c = edge_cost_fixed(&g, p, q);
                            prop_assert!(h.at(p) <= c + h.at(q), "{p:?} -> {q:?}");
                            prop_assert!(h.at(q) <= c + h.at(p), "{q:?} -> {p:?}");
                        }
                    }
                }
            }
        }
    }
}
