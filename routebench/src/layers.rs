//! The traced pass (`--trace 1`): per-layer metrics.
//!
//! The pass repeats one sample until the run's seconds are spent and
//! reports each metric's median over the samples. A sample:
//!
//! 1. routes the design once through `Router::run` (the untraced
//!    reference, and the basis of `trace.overhead_frac`);
//! 2. replays that run stage by stage through each layer's public calls,
//!    each inside a harness span: `Design::build_graph`,
//!    `PatternStage::run`, `GridGraph::report`, `RrrStage::run`,
//!    `GridGraph::report`, `RouteGuides::from_routes`. The replay must
//!    reproduce `Router::run` (byte-identical pattern routes; identical
//!    final routes unless task-graph RRR ran tasks concurrently, where
//!    quality must stay within [`REPLAY_QUALITY_BOUND`]), or its per-layer
//!    numbers would measure a different program;
//! 3. probes planning (Steiner trees, sort, conflict graph, batches), the
//!    RRR schedule, the cost prober and serial maze searches, and times
//!    the commits of the replay's routes into a fresh graph;
//! 4. routes once through `Router::run_with_recorder` with an enabled
//!    recorder: the `gpu`, worker-busy and `telemetry` metrics come from
//!    the `RunTrace` the program returns.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fastgr_core::{
    PatternEngine, PatternStage, QualityMetrics, RouteGuides, Router, RoutingOutcome, RrrStage,
    RrrStrategy,
};
use fastgr_design::{Design, NetId};
use fastgr_gpu::HostPool;
use fastgr_grid::{CostProber, GridGraph, Rect, Route};
use fastgr_maze::{MazeConfig, MazeRouter, MazeScratch, MazeStats};
use fastgr_steiner::SteinerBuilder;
use fastgr_taskgraph::{extract_batches, ConflictGraph, Schedule};
use fastgr_telemetry::{Recorder, RunTrace};

use crate::check::{check, Solution};
use crate::{median, Checks, Metric, Setup, Threads};

/// Largest relative difference of wirelength, vias and score allowed
/// between the replay and `Router::run` when task-graph RRR ran tasks
/// concurrently, whose results vary from run to run. It is the tightest
/// of those metrics' bounds in `BENCHMARK.json`.
pub const REPLAY_QUALITY_BOUND: f64 = 0.01;

/// Runs the traced pass and returns the per-layer metrics.
pub fn traced_pass(
    router: &Router,
    design: &Design,
    setup: &mut Setup,
    threads: &Threads,
    budget: f64,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let clock = Instant::now();
    // `Router::run` without RRR iterations yields exactly the pattern
    // stage's routes.
    let no_rrr = Router::new(router.config().with_rrr_iterations(0));
    let (_, pattern_ref) = checks.route(&no_rrr, design, &Recorder::disabled());
    let pattern_ref = pattern_ref.ok_or("the pattern-only reference run failed")?;

    let mut samples = Vec::new();
    while samples.is_empty() || clock.elapsed() < Duration::from_secs_f64(budget) {
        samples.push(sample(
            router,
            design,
            threads,
            &pattern_ref.routes,
            checks,
        )?);
        setup.time_loads()?;
    }

    let med = |i: usize| {
        median(
            &samples
                .iter()
                .map(|s| s.metrics[i].value)
                .collect::<Vec<_>>(),
        )
    };
    let first = &samples[0].metrics;
    let (parse_s, build_s, _) = setup.medians();
    let metrics: Vec<Metric> = [
        Metric::new("design.parse_s", parse_s, "s"),
        Metric::new("grid.build_s", build_s, "s"),
    ]
    .into_iter()
    .chain((0..first.len()).map(|i| Metric::new(first[i].name, med(i), first[i].unit)))
    .collect();
    let route_s = median(&samples.iter().map(|s| s.route_s).collect::<Vec<_>>());
    let replay_s = median(&samples.iter().map(|s| s.replay_s).collect::<Vec<_>>());
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let (rrr_s, pattern_s) = (get("rrr.stage_s"), get("pattern.stage_s"));
    println!(
        "character over {} samples: route_s {route_s:.4} s, replay {replay_s:.4} s; rrr.stage_s {:.3} \
         of route_s ({:.3} of the replay); pattern.stage_s {:.3} of route_s ({:.3} of the replay); \
         pattern.cost_cache_builds {}",
        samples.len(),
        rrr_s / route_s,
        rrr_s / replay_s,
        pattern_s / route_s,
        pattern_s / replay_s,
        get("pattern.cost_cache_builds")
    );
    Ok(metrics)
}

/// One sample of the traced pass.
struct Sample {
    /// Host seconds of the sample's untraced `Router::run`.
    route_s: f64,
    /// Host seconds of the sample's stage-by-stage replay.
    replay_s: f64,
    metrics: Vec<Metric>,
}

/// Harness spans of the replay, in order.
#[derive(Default)]
struct Spans(Vec<(&'static str, f64)>);

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (value, s) = seconds(f);
        self.0.push((name, s));
        value
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }
}

fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// The `q`-quantile of `values` by nearest rank (0 when empty: no search
/// took any time).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Ids of the nets whose routes overflow in `graph`, ascending.
fn overflowing(graph: &GridGraph, routes: &[Route]) -> Vec<u32> {
    (0..routes.len() as u32)
        .filter(|&i| graph.route_has_overflow(&routes[i as usize]))
        .collect()
}

/// Seconds the executor's workers spent inside tasks, from the begin/end
/// task events of a traced run.
fn task_busy_seconds(trace: &RunTrace) -> f64 {
    let mut open = HashMap::new();
    let mut busy = 0.0;
    for e in trace.events().iter().filter(|e| e.cat == "task") {
        if e.begin {
            open.insert(e.track, e.t_seconds);
        } else if let Some(t0) = open.remove(&e.track) {
            busy += e.t_seconds - t0;
        }
    }
    busy
}

/// Checks that the replay reproduced `Router::run`.
fn check_fidelity(
    checks: &mut Checks,
    concurrent_rrr: bool,
    pattern: (&[Route], &[Route]),
    replay: (&[Route], &QualityMetrics),
    run: &RoutingOutcome,
) {
    if pattern.0 != pattern.1 {
        checks.fail("replayed pattern routes differ from Router::run's");
    }
    if !concurrent_rrr {
        if replay.0 != run.routes.as_slice() {
            checks.fail("replayed final routes differ from Router::run's");
        }
        return;
    }
    let (q, r) = (replay.1, &run.metrics);
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
    let worst = rel(q.wirelength as f64, r.wirelength as f64)
        .max(rel(q.vias as f64, r.vias as f64))
        .max(rel(q.score(), r.score()));
    println!(
        "fidelity: concurrent task-graph RRR; replay wl {} vias {} shorts {} vs run wl {} vias {} \
         shorts {} (worst relative difference {worst:.5}, bound {REPLAY_QUALITY_BOUND})",
        q.wirelength, q.vias, q.shorts, r.wirelength, r.vias, r.shorts
    );
    if worst > REPLAY_QUALITY_BOUND {
        checks.fail("replay quality outside the bound of Router::run's");
    }
}

fn sample(
    router: &Router,
    design: &Design,
    threads: &Threads,
    pattern_ref: &[Route],
    checks: &mut Checks,
) -> Result<Sample, String> {
    let nets = design.nets();
    let c = *router.config();

    // --- 1. The untraced reference run. ---
    let (route_s, run) = checks.route(router, design, &Recorder::disabled());
    let run = run.ok_or("the reference run failed")?;

    // --- 2. Replay. ---
    let stage = PatternStage {
        mode: c.pattern_mode,
        engine: c.engine,
        sorting: c.sorting,
        steiner_passes: c.steiner_passes,
        congestion_aware_planning: c.congestion_aware_planning,
        cost_probing: c.cost_probing,
        validate: c.validate,
    };
    let rrr_stage = RrrStage {
        iterations: c.rrr_iterations,
        strategy: c.rrr_strategy,
        sorting: c.rrr_sorting.unwrap_or(c.sorting),
        maze: c.maze,
        workers: c.workers,
        history_increment: c.history_increment,
        validate: c.validate,
    };
    let mut spans = Spans::default();
    let replay = Instant::now();
    let mut graph = spans
        .time("grid.build", || design.build_graph(c.cost))
        .map_err(|e| format!("build_graph: {e}"))?;
    let pattern = spans
        .time("pattern.stage", || stage.run(design, &mut graph))
        .map_err(|e| format!("pattern stage: {e}"))?;
    let shorts_after = spans.time("grid.report", || graph.report().shorts());
    let (post_pattern, mut routes) = spans.time("harness.snapshot", || {
        (graph.clone(), pattern.routes.clone())
    });
    let rrr = spans
        .time("rrr.stage", || {
            rrr_stage.run(design, &mut graph, &mut routes)
        })
        .map_err(|e| format!("rrr stage: {e}"))?;
    let report = spans.time("grid.report", || graph.report());
    let guides = spans.time("guides.build", || RouteGuides::from_routes(design, &routes));
    let replay_wall = replay.elapsed().as_secs_f64();
    let covered: f64 = spans.0.iter().map(|(_, s)| s).sum();
    let listed: Vec<String> = spans.0.iter().map(|(n, s)| format!("{n} {s:.4}")).collect();
    println!(
        "replay spans (s): {}; wall {replay_wall:.4}, unattributed {:.6}",
        listed.join(", "),
        replay_wall - covered
    );

    let quality = QualityMetrics {
        wirelength: routes.iter().map(Route::wirelength).sum(),
        vias: routes.iter().map(Route::via_count).sum(),
        shorts: report.shorts(),
    };
    let verdict = check(
        design,
        c.cost,
        &Solution {
            routes: &routes,
            report: &report,
            guides: &guides,
            metrics: &quality,
        },
    );
    checks.attempted += nets.len();
    checks.failed += verdict.failed(nets.len());
    if let Some(why) = &verdict.whole_result {
        println!("check failed: replay result: {why}");
    }
    let concurrent_rrr = c.rrr_strategy == RrrStrategy::TaskGraph
        && threads.rrr > 1
        && rrr.nets_ripped.iter().any(|&n| n > 1);
    check_fidelity(
        checks,
        concurrent_rrr,
        (&pattern.routes, pattern_ref),
        (&routes, &quality),
        &run,
    );
    drop(run);

    // --- 3. Probes. ---
    let host_pool = HostPool::new(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let builder = SteinerBuilder::new().with_passes(c.steiner_passes);
    let (trees, steiner_s) = seconds(|| host_pool.map(nets.len(), |i| builder.build(&nets[i])));
    if !c.congestion_aware_planning && trees != pattern.trees {
        checks.fail("probed Steiner trees differ from the pattern stage's");
    }
    drop(trees);
    let (order, sort_s) = seconds(|| c.sorting.sorted_ids(nets));
    let boxes: Vec<Rect> = nets.iter().map(|n| n.bounding_box()).collect();
    let (conflicts, conflict_s) = seconds(|| ConflictGraph::from_bounding_boxes(&boxes));
    let (batches, batch_s) = seconds(|| extract_batches(&order, &conflicts));
    if batches.len() != pattern.batch_count {
        checks.fail("probed batch count differs from the pattern stage's");
    }
    let conflict_edges = conflicts.edge_count();
    drop(conflicts);

    let pattern_pool = match c.engine {
        PatternEngine::GpuFlow(device) => HostPool::resolved(device.host_workers),
        PatternEngine::ParallelCpu { workers } => HostPool::new(workers),
        _ => HostPool::new(1),
    };
    let fresh = design
        .build_graph(c.cost)
        .map_err(|e| format!("build_graph: {e}"))?;
    let (_, prober_s) = seconds(|| CostProber::build_with_pool(&fresh, &pattern_pool));
    drop(fresh);

    // The iteration-0 RRR task set, ordered and boxed as `RrrStage` does.
    let mut violating = overflowing(&post_pattern, &pattern.routes);
    rrr_stage.sorting.sort_subset(&mut violating, nets);
    if violating.len() != rrr.nets_ripped.first().copied().unwrap_or(0) {
        checks.fail("probed iteration-0 violating nets differ from the RRR stage's");
    }
    let (schedule_edges, schedule_s) = seconds(|| {
        let inflated: Vec<Rect> = violating
            .iter()
            .map(|&id| {
                design
                    .net(NetId(id))
                    .bounding_box()
                    .inflated(1, design.width(), design.height())
            })
            .collect();
        let order: Vec<u32> = (0..violating.len() as u32).collect();
        Schedule::build(&order, &ConflictGraph::from_bounding_boxes(&inflated))
            .edges()
            .count()
    });

    // Serial maze searches over the iteration-0 task set on the
    // post-pattern grid: uncommit, route (timed), recommit. A failed search
    // retries with the doubled window `RrrStage` falls back to.
    let maze = MazeRouter::new(c.maze);
    let wide = MazeRouter::new(MazeConfig {
        window_margin: c.maze.window_margin.saturating_mul(2).max(8),
        ..c.maze
    });
    let mut maze_graph = post_pattern;
    let (mut scratch, mut pins, mut out) = (MazeScratch::new(), Vec::new(), Route::new());
    let mut per_net = Vec::with_capacity(violating.len());
    let mut stats = MazeStats::default();
    for &id in &violating {
        let old = &pattern.routes[id as usize];
        maze_graph
            .uncommit(old)
            .map_err(|e| format!("uncommit: {e}"))?;
        design.net(NetId(id)).distinct_positions_into(&mut pins);
        let (result, s) = seconds(|| {
            maze.route_into(&maze_graph, &pins, &mut scratch, &mut out)
                .or_else(|_| wide.route_into(&maze_graph, &pins, &mut scratch, &mut out))
        });
        per_net.push(s);
        match result {
            Ok(found) => {
                stats.expanded += found.expanded;
                stats.searches += found.searches;
                maze_graph
                    .commit(&out)
                    .map_err(|e| format!("commit: {e}"))?;
            }
            Err(e) => {
                checks.fail(&format!("maze probe, net {id}: {e}"));
                maze_graph.commit(old).map_err(|e| format!("commit: {e}"))?;
            }
        }
    }
    drop(maze_graph);

    let still = overflowing(&graph, &routes).len();
    let ripped0 = rrr.nets_ripped.first().copied().unwrap_or(0);
    let resolved_frac = if ripped0 == 0 {
        1.0
    } else {
        1.0 - still as f64 / ripped0 as f64
    };
    println!(
        "rrr nets_ripped per iteration {:?}; {still} nets still overflow",
        rrr.nets_ripped
    );

    // --- 4. The traced run. ---
    let (traced_s, traced) = checks.route(router, design, &Recorder::enabled());
    let trace = traced.ok_or("the traced run failed")?.trace;
    let stage_spans: f64 = trace.spans().iter().map(|s| s.duration_seconds).sum();
    let rrr_span: f64 = trace
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("rrr.iter"))
        .map(|s| s.duration_seconds)
        .sum();
    let worker_busy_frac = if c.rrr_strategy == RrrStrategy::TaskGraph && rrr_span > 0.0 {
        task_busy_seconds(&trace) / (threads.rrr as f64 * rrr_span)
    } else {
        0.0
    };
    let kernels = trace.kernels();
    let counter = |name: &str| trace.counter(name).unwrap_or(0.0);

    let metrics = vec![
        Metric::new("grid.prober_build_s", prober_s, "s"),
        Metric::new("grid.commit_s", verdict.commit_seconds, "s"),
        Metric::new("steiner.build_s", steiner_s, "s"),
        Metric::new("ordering.sort_s", sort_s, "s"),
        Metric::new("taskgraph.conflict_s", conflict_s, "s"),
        Metric::new("taskgraph.conflict_edges", conflict_edges as f64, "count"),
        Metric::new("taskgraph.batch_s", batch_s, "s"),
        Metric::new("taskgraph.batches", batches.len() as f64, "count"),
        Metric::new("taskgraph.schedule_s", schedule_s, "s"),
        Metric::new("taskgraph.schedule_edges", schedule_edges as f64, "count"),
        Metric::new("pattern.stage_s", spans.get("pattern.stage"), "s"),
        Metric::new(
            "pattern.cost_probes",
            counter("pattern.cost_probes"),
            "count",
        ),
        Metric::new(
            "pattern.cost_cache_builds",
            counter("pattern.cost_cache_builds"),
            "count",
        ),
        Metric::new(
            "pattern.cost_cache_rows_rebuilt",
            counter("pattern.cost_cache_rows_rebuilt"),
            "count",
        ),
        Metric::new("pattern.shorts_after", shorts_after, "track"),
        Metric::new(
            "gpu.kernel_host_s",
            kernels.iter().fold(0.0, |s, k| s + k.host_seconds),
            "s",
        ),
        Metric::new("gpu.launches", kernels.len() as f64, "count"),
        Metric::new(
            "gpu.blocks",
            kernels.iter().map(|k| k.blocks).sum::<usize>() as f64,
            "count",
        ),
        Metric::new(
            "gpu.modeled_s",
            kernels.iter().fold(0.0, |s, k| s + k.modeled_seconds),
            "s_modelled",
        ),
        Metric::new("maze.search_s", per_net.iter().fold(0.0, |s, t| s + t), "s"),
        Metric::new("maze.net_p50_s", quantile(&per_net, 0.5), "s"),
        Metric::new("maze.net_p99_s", quantile(&per_net, 0.99), "s"),
        Metric::new("maze.expanded", stats.expanded as f64, "count"),
        Metric::new("maze.searches", f64::from(stats.searches), "count"),
        Metric::new("rrr.stage_s", spans.get("rrr.stage"), "s"),
        Metric::new("rrr.modeled_s", rrr.modeled_parallel_seconds, "s_modelled"),
        Metric::new(
            "rrr.nets_ripped",
            rrr.nets_ripped.iter().sum::<usize>() as f64,
            "count",
        ),
        Metric::new("rrr.dirty_edges", rrr.dirty_edges as f64, "count"),
        Metric::new("rrr.rescans_avoided", rrr.rescans_avoided as f64, "count"),
        Metric::new("rrr.resolved_frac", resolved_frac, "ratio"),
        Metric::new("rrr.worker_busy_frac", worker_busy_frac, "ratio"),
        Metric::new("guides.build_s", spans.get("guides.build"), "s"),
        Metric::new("guides.boxes", guides.box_count() as f64, "count"),
        Metric::new("trace.overhead_frac", traced_s / route_s - 1.0, "ratio"),
        Metric::new(
            "trace.unattributed_frac",
            1.0 - stage_spans / traced_s,
            "ratio",
        ),
    ];
    Ok(Sample {
        route_s,
        replay_s: replay_wall,
        metrics,
    })
}
