//! Output checks. Every route the benchmark times is verified here, and
//! the count of nets that fail feeds `failed_frac`.
//!
//! Per net: the route is connected and touches every pin on layer 0, and
//! the net's guide boxes contain every pin. Whole result: the program's own
//! `RouteGuides::covers_pins` agrees, recommitting the routes into a fresh
//! graph reproduces the reported congestion exactly, and the quality
//! metrics equal the sums over the routes. A whole-result failure counts
//! every net, since it cannot be pinned on one.

use fastgr_core::{QualityMetrics, RouteGuides};
use fastgr_design::Design;
use fastgr_grid::{CongestionReport, CostParams, Route};

/// What the checks found in one routing result.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Ids of the nets that failed a per-net check, ascending.
    pub failed_nets: Vec<u32>,
    /// Why the whole result failed, if it did.
    pub whole_result: Option<String>,
    /// Host seconds of `GridGraph::commit` of every route into the fresh
    /// graph (the `grid.commit_s` probe).
    pub commit_seconds: f64,
}

impl Verdict {
    /// Nets counted as failed: every net when the whole result failed.
    pub fn failed(&self, nets: usize) -> usize {
        if self.whole_result.is_some() {
            nets
        } else {
            self.failed_nets.len()
        }
    }
}

/// The parts of a routing result the checks read.
pub struct Solution<'a> {
    pub routes: &'a [Route],
    pub report: &'a CongestionReport,
    pub guides: &'a RouteGuides,
    pub metrics: &'a QualityMetrics,
}

/// Checks one routing result of `design`.
pub fn check(design: &Design, cost: CostParams, result: &Solution<'_>) -> Verdict {
    let mut verdict = Verdict::default();
    if result.routes.len() != design.nets().len() {
        verdict.whole_result = Some(format!(
            "{} routes for {} nets",
            result.routes.len(),
            design.nets().len()
        ));
        return verdict;
    }
    for (net, route) in design.nets().iter().zip(result.routes) {
        let pins = net.distinct_positions();
        let touched = route.touched_points();
        let reaches_pins = pins.len() <= 1
            || pins
                .iter()
                .all(|p| touched.binary_search(&p.on_layer(0)).is_ok());
        let boxes = result.guides.net(net.id().0);
        let guided = if boxes.is_empty() {
            pins.len() <= 1
        } else {
            pins.iter()
                .all(|&p| boxes.iter().any(|b| b.rect.contains(p)))
        };
        if !(route.is_connected() && reaches_pins && guided) {
            verdict.failed_nets.push(net.id().0);
        }
    }
    if !result.guides.covers_pins(design) && verdict.failed_nets.is_empty() {
        verdict.whole_result = Some("RouteGuides::covers_pins failed".to_owned());
    }
    // Keeps the first whole-result failure.
    let fail = |verdict: &mut Verdict, why: String| {
        verdict.whole_result.get_or_insert(why);
    };

    let mut graph = match design.build_graph(cost) {
        Ok(g) => g,
        Err(e) => {
            fail(&mut verdict, format!("fresh graph: {e}"));
            return verdict;
        }
    };
    let start = std::time::Instant::now();
    for (id, route) in result.routes.iter().enumerate() {
        if graph.commit(route).is_err() {
            verdict.failed_nets.push(id as u32);
        }
    }
    verdict.commit_seconds = start.elapsed().as_secs_f64();
    verdict.failed_nets.sort_unstable();
    verdict.failed_nets.dedup();

    let fresh = graph.report();
    let r = result.report;
    if fresh.total_wire_demand != r.total_wire_demand
        || fresh.overflow != r.overflow
        || fresh.overflowing_edges != r.overflowing_edges
        || fresh.total_via_demand != r.total_via_demand
    {
        fail(
            &mut verdict,
            format!(
                "recommitted demand differs: wire {} vs {}, overflow {} vs {}",
                fresh.total_wire_demand, r.total_wire_demand, fresh.overflow, r.overflow
            ),
        );
    }
    let m = result.metrics;
    let wirelength: u64 = result.routes.iter().map(Route::wirelength).sum();
    let vias: u64 = result.routes.iter().map(Route::via_count).sum();
    if m.wirelength != wirelength || m.vias != vias || m.shorts != r.shorts() {
        fail(
            &mut verdict,
            format!(
                "metrics differ from the routes: wl {} vs {wirelength}, vias {} vs {vias}",
                m.wirelength, m.vias
            ),
        );
    }
    verdict
}

/// Corrupts one route (drops the first segment of the first multi-pin net
/// that has one) and requires [`check`] to count it, through the per-net
/// checks or the whole-result ones. Guards against a check that never
/// fires, which a clean result could not tell apart.
pub fn self_check(
    design: &Design,
    cost: CostParams,
    result: &Solution<'_>,
) -> Result<String, String> {
    let victim = design
        .nets()
        .iter()
        .position(|n| {
            n.distinct_positions().len() > 1
                && !result.routes[n.id().0 as usize].segments().is_empty()
        })
        .ok_or("no multi-pin net with wire segments to corrupt")?;
    let original = &result.routes[victim];
    let mut corrupted = Route::new();
    for &s in &original.segments()[1..] {
        corrupted.push_segment(s);
    }
    for &v in original.vias() {
        corrupted.push_via(v);
    }
    let mut routes = result.routes.to_vec();
    routes[victim] = corrupted;
    let verdict = check(
        design,
        cost,
        &Solution {
            routes: &routes,
            ..*result
        },
    );
    let per_net = verdict.failed_nets.binary_search(&(victim as u32)).is_ok();
    match (per_net, &verdict.whole_result) {
        (false, None) => Err(format!("net {victim} with its first segment dropped was not counted")),
        (_, whole) => Ok(format!(
            "net {victim} with its first segment dropped is counted; per-net check: {}, whole-result check: {}",
            if per_net { "flagged" } else { "passed" },
            whole.as_deref().unwrap_or("passed")
        )),
    }
}
