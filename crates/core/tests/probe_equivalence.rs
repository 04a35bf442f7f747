//! Full-suite equivalence contract of the prefix-sum cost prober: the
//! pattern stage must emit byte-identical routes whether kernels probe
//! O(1) prefix differences or walk gcells directly, for every engine and
//! candidate-set mode — and, with probing on, byte-identical routes for
//! any host worker count. Both sides evaluate the same Q44.20 quantised
//! cost domain, so these are exact equality tests.

use fastgr_core::{
    PatternDp, PatternEngine, PatternMode, PatternStage, SelectionThresholds, SortingScheme,
};
use fastgr_design::{Design, Generator, GeneratorParams};
use fastgr_gpu::DeviceConfig;
use fastgr_grid::{CostParams, Rect, Route};
use fastgr_steiner::{RouteTree, SteinerBuilder};
use fastgr_taskgraph::{extract_batches, ConflictGraph};

fn congested_design() -> Design {
    Generator::new(GeneratorParams {
        name: "probe-equivalence".into(),
        width: 24,
        height: 24,
        layers: 6,
        num_nets: 240,
        capacity: 4.0,
        hotspots: 2,
        hotspot_affinity: 0.5,
        blockages: 2,
        seed: 33,
    })
    .generate()
}

fn route_once(
    design: &Design,
    engine: PatternEngine,
    mode: PatternMode,
    cost_probing: bool,
) -> (Vec<Route>, f64) {
    let mut graph = design
        .build_graph(CostParams::default())
        .expect("suite designs build");
    let outcome = PatternStage {
        mode,
        engine,
        sorting: SortingScheme::HpwlAscending,
        steiner_passes: 4,
        congestion_aware_planning: false,
        cost_probing,
        validate: true,
    }
    .run(design, &mut graph)
    .expect("routable");
    (outcome.routes, graph.report().total_wire_demand)
}

/// Probed and direct cost evaluation agree bit-for-bit on every
/// engine × mode combination of the full suite.
#[test]
fn probed_routes_match_direct_routes_across_engines_and_modes() {
    let design = congested_design();
    let engines = [
        PatternEngine::SequentialCpu,
        PatternEngine::GpuFlow(DeviceConfig::rtx3090_like()),
        PatternEngine::ParallelCpu { workers: 2 },
    ];
    let modes = [
        PatternMode::LShape,
        PatternMode::ZShape,
        PatternMode::HybridAll,
        PatternMode::Hybrid(SelectionThresholds::default()),
    ];
    for engine in engines {
        for mode in modes {
            let (probed, probed_demand) = route_once(&design, engine, mode, true);
            let (direct, direct_demand) = route_once(&design, engine, mode, false);
            assert_eq!(
                probed, direct,
                "{engine:?} {mode:?}: probed and direct routes diverged"
            );
            assert_eq!(probed_demand, direct_demand);
        }
    }
}

/// With the prober on, routed outputs are byte-identical across host
/// worker counts (the parallel rebuild must not perturb results).
#[test]
fn probed_routes_identical_across_worker_counts() {
    let design = congested_design();
    let baseline = route_once(
        &design,
        PatternEngine::GpuFlow(DeviceConfig::rtx3090_like().with_host_workers(1)),
        PatternMode::HybridAll,
        true,
    );
    for workers in [2usize, 4] {
        let run = route_once(
            &design,
            PatternEngine::GpuFlow(DeviceConfig::rtx3090_like().with_host_workers(workers)),
            PatternMode::HybridAll,
            true,
        );
        assert_eq!(
            baseline.0, run.0,
            "worker count {workers} changed the routed output"
        );
        assert_eq!(baseline.1, run.1);
    }
    for workers in [1usize, 2, 4] {
        let run = route_once(
            &design,
            PatternEngine::ParallelCpu { workers },
            PatternMode::HybridAll,
            true,
        );
        assert_eq!(
            baseline.0, run.0,
            "ParallelCpu worker count {workers} changed the routed output"
        );
    }
}

/// Independent model of an engine's commit semantics: every net of a
/// commit group routes against the grid as it was at group start (direct
/// cost walks, no prober), then the whole group commits in order.
fn reference_routes(design: &Design, mode: PatternMode, groups: &[Vec<u32>]) -> Vec<Route> {
    let mut graph = design
        .build_graph(CostParams::default())
        .expect("suite designs build");
    let builder = SteinerBuilder::new().with_passes(4);
    let trees: Vec<RouteTree> = design.nets().iter().map(|n| builder.build(n)).collect();
    let mut routes = vec![Route::new(); design.nets().len()];
    for group in groups {
        let routed: Vec<Route> = {
            let dp = PatternDp::direct(&graph, mode);
            group
                .iter()
                .map(|&net| dp.route_net(&trees[net as usize]).expect("routable").route)
                .collect()
        };
        for (&net, route) in group.iter().zip(routed) {
            graph.commit(&route).expect("valid route");
            routes[net as usize] = route;
        }
    }
    routes
}

/// Each engine's routes equal the reference model: the sequential engine
/// commits after every net in sorted order; the batched engines (GPU and
/// CPU workers, any worker count) commit once per conflict-free batch.
#[test]
fn engines_match_reference_commit_semantics() {
    let design = congested_design();
    let order = SortingScheme::HpwlAscending.sorted_ids(design.nets());
    let per_net: Vec<Vec<u32>> = order.iter().map(|&net| vec![net]).collect();
    let bboxes: Vec<Rect> = design.nets().iter().map(|n| n.bounding_box()).collect();
    let batches = extract_batches(&order, &ConflictGraph::from_bounding_boxes(&bboxes));
    assert!(batches.len() < order.len(), "batching must group nets");
    for mode in [PatternMode::LShape, PatternMode::HybridAll] {
        let sequential = reference_routes(&design, mode, &per_net);
        let batched = reference_routes(&design, mode, &batches);
        // The two commit models must disagree on this design, or the test
        // could not tell the engines' semantics apart.
        assert!(sequential != batched, "{mode:?}: commit models agree");
        let engines = [
            (PatternEngine::SequentialCpu, &sequential),
            (
                PatternEngine::GpuFlow(DeviceConfig::rtx3090_like()),
                &batched,
            ),
            (PatternEngine::ParallelCpu { workers: 1 }, &batched),
            (PatternEngine::ParallelCpu { workers: 2 }, &batched),
            (PatternEngine::ParallelCpu { workers: 4 }, &batched),
        ];
        for (engine, reference) in engines {
            let (routes, _) = route_once(&design, engine, mode, true);
            assert!(
                routes == *reference,
                "{engine:?} {mode:?}: routes diverge from the reference model"
            );
        }
    }
}
