//! Micro-benchmarks of the task graph scheduler pipeline: conflict graph
//! construction, Algorithm 1 batch extraction (over a prebuilt conflict
//! graph, and edge-free over the boxes), schedule building, and the
//! executor's dependency-counting overhead. Besides random small boxes,
//! the graph and batch groups time one suite-scale row: the s19t9 net
//! boxes in ascending-HPWL order, whose large boxes give 1.0M conflict
//! edges.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fastgr_core::SortingScheme;
use fastgr_design::{BenchmarkSpec, SplitMix64};
use fastgr_grid::{Point2, Rect};
use fastgr_taskgraph::{
    extract_batches, extract_batches_from_boxes, ConflictGraph, Executor, Schedule,
};

fn random_boxes(n: usize, side: u16, extent: u16, seed: u64) -> Vec<Rect> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let x = rng.next_below((side - extent) as u64) as u16;
            let y = rng.next_below((side - extent) as u64) as u16;
            let w = 1 + rng.next_below(extent as u64) as u16;
            let h = 1 + rng.next_below(extent as u64) as u16;
            Rect::new(Point2::new(x, y), Point2::new(x + w, y + h))
        })
        .collect()
}

/// The random workloads (labelled by task count, identity order) and the
/// s19t9 net boxes in the pattern stage's ascending-HPWL order.
fn workloads() -> Vec<(String, Vec<Rect>, Vec<u32>)> {
    let mut rows: Vec<_> = [500usize, 2000, 8000]
        .into_iter()
        .map(|n| {
            let order = (0..n as u32).collect();
            (n.to_string(), random_boxes(n, 140, 6, 42), order)
        })
        .collect();
    let design = BenchmarkSpec::find("s19t9")
        .expect("suite design")
        .generate();
    let boxes = design.nets().iter().map(|n| n.bounding_box()).collect();
    let order = SortingScheme::HpwlAscending.sorted_ids(design.nets());
    rows.push(("s19t9".to_owned(), boxes, order));
    rows
}

fn bench_conflict_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_graph");
    for (label, boxes, _) in workloads() {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| black_box(ConflictGraph::from_bounding_boxes(&boxes)));
        });
    }
    group.finish();
}

fn bench_batch_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_extraction");
    for (label, boxes, order) in workloads() {
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| black_box(extract_batches(&order, &conflicts)));
        });
    }
    group.finish();
}

fn bench_batch_extraction_boxes(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_extraction_boxes");
    for (label, boxes, order) in workloads() {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| black_box(extract_batches_from_boxes(&order, &boxes)));
        });
    }
    group.finish();
}

fn bench_schedule_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_build");
    for n in [500usize, 2000, 8000] {
        let boxes = random_boxes(n, 140, 6, 42);
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let order: Vec<u32> = (0..n as u32).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(Schedule::build(&order, &conflicts)));
        });
    }
    group.finish();
}

fn bench_executor_overhead(c: &mut Criterion) {
    // Per-task scheduling overhead with trivial task bodies.
    let boxes = random_boxes(2000, 140, 6, 42);
    let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
    let order: Vec<u32> = (0..2000).collect();
    let schedule = Schedule::build(&order, &conflicts);
    let mut group = c.benchmark_group("executor");
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("noop_tasks", workers),
            &workers,
            |b, &w| {
                let executor = Executor::new(w);
                b.iter(|| {
                    executor.run(&schedule, |t| {
                        black_box(t);
                    })
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_conflict_graph,
    bench_batch_extraction,
    bench_batch_extraction_boxes,
    bench_schedule_build,
    bench_executor_overhead
);
criterion_main!(benches);
