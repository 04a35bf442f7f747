//! Worker-sweep wall-clock of the rip-up-and-reroute stage across the
//! three parallelisation strategies (the snapshot recorded in
//! `BENCH_rrr.json`).
//!
//! ```text
//! bench_rrr [--full] [--out PATH] [--workers N] [--iterations N]
//!
//! --full:         sweep the suite's congestion-dominated 5-metal
//!                 benchmarks (default: one small synthetic hotspot design)
//! --out PATH:     where to write the JSON snapshot (default: BENCH_rrr.json)
//! --workers N:    largest worker count in the sweep (default: 8)
//! --iterations N: RRR iterations per run (default: 3)
//! ```
//!
//! Each design is pattern-routed once; every (strategy, workers) cell of
//! the sweep then starts from a clone of that state, so the cells are
//! directly comparable. After **every** run the demand-consistency
//! invariant is asserted: uncommitting all final routes from a clone of
//! the grid must leave exactly zero demand — the lock-free fixed-point
//! congestion store may never drift, whatever the interleaving. The
//! binary aborts if it does. Each run also records the maze search work
//! (`maze_expanded` vertices expanded, `maze_pushes` priority-queue
//! pushes), which repeats exactly for the serial strategies.

use std::env;
use std::fmt::Write as _;
use std::process::ExitCode;

use fastgr_core::{
    PatternEngine, PatternMode, PatternStage, RrrStage, RrrStrategy, SortingScheme,
};
use fastgr_design::{suite, Design, Generator, GeneratorParams};
use fastgr_grid::{CostParams, GridGraph, Route};
use fastgr_maze::MazeConfig;

const STRATEGIES: [(RrrStrategy, &str); 3] = [
    (RrrStrategy::TaskGraph, "task_graph"),
    (RrrStrategy::BatchBarrier, "batch_barrier"),
    (RrrStrategy::Sequential, "sequential"),
];

struct Run {
    design: String,
    nets: usize,
    strategy: &'static str,
    workers: usize,
    host_seconds: f64,
    modeled_seconds: f64,
    ripped_total: usize,
    dirty_edges: u64,
    rescans_avoided: u64,
    maze_expanded: u64,
    maze_pushes: u64,
    overflow_before: f64,
    overflow_after: f64,
}

/// A small, heavily congested hotspot design for the quick sweep (the
/// same shape the RRR unit tests use, so the smoke run exercises exactly
/// the tested path).
fn smoke_design() -> Design {
    Generator::new(GeneratorParams {
        name: "rrr-smoke".to_string(),
        width: 24,
        height: 24,
        layers: 5,
        num_nets: 360,
        capacity: 3.0,
        hotspots: 2,
        hotspot_affinity: 0.6,
        blockages: 2,
        seed: 5,
    })
    .generate()
}

/// Pattern-routes `design` once, returning the starting state every sweep
/// cell is cloned from.
fn pattern_route(design: &Design) -> (GridGraph, Vec<Route>) {
    let mut graph = design
        .build_graph(CostParams::default())
        .expect("bench designs build");
    let outcome = PatternStage {
        mode: PatternMode::LShape,
        engine: PatternEngine::SequentialCpu,
        sorting: SortingScheme::HpwlAscending,
        steiner_passes: 4,
        congestion_aware_planning: false,
        cost_probing: true,
        validate: false,
    }
    .run(design, &mut graph)
    .expect("bench designs pattern-route");
    (graph, outcome.routes)
}

/// The demand-consistency invariant: the grid's committed demand must be
/// exactly the demand of the stored routes — uncommit everything and the
/// fixed-point ledger reads zero.
fn assert_demand_consistent(graph: &GridGraph, routes: &[Route], context: &str) {
    let mut check = graph.clone();
    for route in routes {
        check
            .uncommit(route)
            .expect("stored routes are committed routes");
    }
    let report = check.report();
    assert_eq!(
        report.total_wire_demand, 0.0,
        "{context}: wire demand drifted"
    );
    assert_eq!(report.total_via_demand, 0.0, "{context}: via demand drifted");
}

fn main() -> ExitCode {
    let mut full = false;
    let mut out_path = String::from("BENCH_rrr.json");
    let mut max_workers = 8usize;
    let mut iterations = 3usize;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--out" => {
                let Some(path) = args.next() else {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                };
                out_path = path;
            }
            "--workers" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0)
                else {
                    eprintln!("--workers needs a positive integer");
                    return ExitCode::FAILURE;
                };
                max_workers = n;
            }
            "--iterations" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0)
                else {
                    eprintln!("--iterations needs a positive integer");
                    return ExitCode::FAILURE;
                };
                iterations = n;
            }
            other => {
                eprintln!(
                    "usage: bench_rrr [--full] [--out PATH] [--workers N] [--iterations N] \
                     (got {other})"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let sweep: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&w| w <= max_workers)
        .collect();

    let designs: Vec<Design> = if full {
        // The 5-metal `m` variants are the congestion-dominated half of
        // the suite — the ones where RRR does real work.
        suite()
            .iter()
            .filter(|s| s.is_m_variant())
            .map(|s| s.generate())
            .collect()
    } else {
        vec![smoke_design()]
    };

    let mut runs: Vec<Run> = Vec::new();
    for design in &designs {
        let (graph0, routes0) = pattern_route(design);
        let overflow_before = graph0.report().overflow;
        for (strategy, strategy_name) in STRATEGIES {
            for &workers in &sweep {
                let mut graph = graph0.clone();
                let mut routes = routes0.clone();
                let stage = RrrStage {
                    iterations,
                    strategy,
                    sorting: SortingScheme::HpwlAscending,
                    maze: MazeConfig::default(),
                    workers,
                    history_increment: 0.0,
                    validate: false,
                };
                let outcome = stage
                    .run(design, &mut graph, &mut routes)
                    .expect("bench designs reroute");
                assert_demand_consistent(
                    &graph,
                    &routes,
                    &format!("{} {strategy_name} x{workers}", design.name()),
                );
                let overflow_after = graph.report().overflow;
                println!(
                    "{:10} {:13} x{:<2} host {:8.3}s  modeled {:8.3}s  ripped {:5}  \
                     dirty {:7}  rescans avoided {:7}  maze expanded {:9}  pushes {:9}  \
                     overflow {:9.1} -> {:9.1}",
                    design.name(),
                    strategy_name,
                    workers,
                    outcome.host_seconds,
                    outcome.modeled_parallel_seconds,
                    outcome.nets_ripped.iter().sum::<usize>(),
                    outcome.dirty_edges,
                    outcome.rescans_avoided,
                    outcome.maze_expanded,
                    outcome.maze_pushes,
                    overflow_before,
                    overflow_after,
                );
                runs.push(Run {
                    design: design.name().to_string(),
                    nets: design.nets().len(),
                    strategy: strategy_name,
                    workers,
                    host_seconds: outcome.host_seconds,
                    modeled_seconds: outcome.modeled_parallel_seconds,
                    ripped_total: outcome.nets_ripped.iter().sum(),
                    dirty_edges: outcome.dirty_edges,
                    rescans_avoided: outcome.rescans_avoided,
                    maze_expanded: outcome.maze_expanded,
                    maze_pushes: outcome.maze_pushes,
                    overflow_before,
                    overflow_after,
                });
            }
        }
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"suite\": \"{}\",", if full { "full" } else { "quick" });
    let _ = writeln!(json, "  \"iterations\": {iterations},");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"worker_sweep\": {sweep:?},");
    let _ = writeln!(json, "  \"demand_consistency\": \"asserted on every run\",");
    let _ = writeln!(json, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"design\": \"{}\", \"nets\": {}, \"strategy\": \"{}\", \"workers\": {}, \
             \"host_seconds\": {:.6}, \"modeled_parallel_seconds\": {:.6}, \
             \"nets_ripped\": {}, \"dirty_edges\": {}, \"full_rescan_avoided\": {}, \
             \"maze_expanded\": {}, \"maze_pushes\": {}, \
             \"overflow_before\": {:.3}, \"overflow_after\": {:.3}}}{}",
            r.design,
            r.nets,
            r.strategy,
            r.workers,
            r.host_seconds,
            r.modeled_seconds,
            r.ripped_total,
            r.dirty_edges,
            r.rescans_avoided,
            r.maze_expanded,
            r.maze_pushes,
            r.overflow_before,
            r.overflow_after,
            if i + 1 < runs.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("failed to write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}
